//===- tests/support/InlineFunctionTest.cpp - InlineFunction tests --------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// InlineFunction on its own (inline/boxed boundary, move-only
// semantics, capture lifetimes) and inside the simulator, where every
// way an event can leave the queue — firing, a cancelled stub draining,
// compaction, and simulator teardown — must destroy its captures exactly
// once.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"
#include "support/InlineFunction.h"

#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

using namespace greenweb;

namespace {

using Fn32 = InlineFunction<int(int), 32>;

/// Capture that tracks how many copies of itself are alive. A double
/// destroy drives the count negative, a leak leaves it positive.
struct LiveProbe {
  int *Live;
  explicit LiveProbe(int *L) : Live(L) { ++*Live; }
  LiveProbe(const LiveProbe &O) : Live(O.Live) { ++*Live; }
  LiveProbe(LiveProbe &&O) noexcept : Live(O.Live) { ++*Live; }
  LiveProbe &operator=(const LiveProbe &) = delete;
  ~LiveProbe() { --*Live; }
};

/// A LiveProbe padded to exactly \p Bytes.
template <size_t Bytes> struct PaddedProbe {
  LiveProbe Probe;
  char Pad[Bytes - sizeof(LiveProbe)] = {};
  explicit PaddedProbe(int *L) : Probe(L) {}
  int operator()(int X) { return X + int(sizeof(Pad)); }
  void operator()() {}
};

TEST(InlineFunctionTest, StoresUpToCapacityInlineAndBoxesBeyond) {
  static_assert(sizeof(PaddedProbe<32>) == 32);
  static_assert(sizeof(PaddedProbe<40>) == 40);
  static_assert(Fn32::StoredInline<PaddedProbe<32>>);
  static_assert(!Fn32::StoredInline<PaddedProbe<40>>);
  static_assert(EventCallback::StoredInline<PaddedProbe<EventCallableBytes>>);
  static_assert(
      !EventCallback::StoredInline<PaddedProbe<EventCallableBytes + 8>>);

  int Live = 0;
  {
    Fn32 AtLimit{PaddedProbe<32>(&Live)};
    Fn32 Over{PaddedProbe<40>(&Live)};
    EXPECT_EQ(Live, 2);
    EXPECT_EQ(AtLimit(1), 1 + 32 - int(sizeof(LiveProbe)));
    EXPECT_EQ(Over(1), 1 + 40 - int(sizeof(LiveProbe)));
    // Moving either layout keeps exactly one live capture each.
    Fn32 AtLimit2(std::move(AtLimit));
    Fn32 Over2(std::move(Over));
    EXPECT_EQ(Live, 2);
    EXPECT_FALSE(AtLimit);
    EXPECT_FALSE(Over);
    EXPECT_EQ(Over2(0), 40 - int(sizeof(LiveProbe)));
  }
  EXPECT_EQ(Live, 0);
}

TEST(InlineFunctionTest, IsMoveOnlyAndHoldsMoveOnlyCaptures) {
  static_assert(!std::is_copy_constructible_v<Fn32>);
  static_assert(!std::is_copy_assignable_v<Fn32>);
  static_assert(std::is_nothrow_move_constructible_v<Fn32>);
  static_assert(std::is_nothrow_move_assignable_v<Fn32>);

  auto Owned = std::make_unique<int>(5);
  Fn32 F([P = std::move(Owned)](int X) { return X * *P; });
  EXPECT_EQ(F(3), 15);
  Fn32 G;
  EXPECT_FALSE(G);
  G = std::move(F);
  EXPECT_FALSE(F);
  ASSERT_TRUE(G);
  EXPECT_EQ(G(2), 10);
}

TEST(InlineFunctionTest, SelfMoveKeepsTheCallable) {
  for (bool Boxed : {false, true}) {
    int Live = 0;
    {
      Fn32 F = Boxed ? Fn32(PaddedProbe<40>(&Live))
                     : Fn32(PaddedProbe<32>(&Live));
      Fn32 &Alias = F; // defeats -Wself-move
      F = std::move(Alias);
      ASSERT_TRUE(F) << "boxed " << Boxed;
      EXPECT_EQ(Live, 1);
      EXPECT_GT(F(0), 0);
    }
    EXPECT_EQ(Live, 0) << "boxed " << Boxed;
  }
}

TEST(InlineFunctionTest, AssignmentAndResetDestroyTheOldCaptureOnce) {
  for (bool Boxed : {false, true}) {
    int Live = 0;
    Fn32 F = Boxed ? Fn32(PaddedProbe<40>(&Live))
                   : Fn32(PaddedProbe<32>(&Live));
    F = Fn32(PaddedProbe<32>(&Live)); // replaces the first capture
    EXPECT_EQ(Live, 1) << "boxed " << Boxed;
    F = nullptr;
    EXPECT_EQ(Live, 0) << "boxed " << Boxed;
    EXPECT_FALSE(F);
    F.reset(); // resetting an empty function is a no-op
    EXPECT_EQ(Live, 0);
  }
}

TEST(InlineFunctionTest, NullSourcesStayEmpty) {
  int (*NullFn)(int) = nullptr;
  std::function<int(int)> EmptyStd;
  EXPECT_FALSE(Fn32(NullFn));
  EXPECT_FALSE(Fn32(EmptyStd));
  EXPECT_FALSE(Fn32(nullptr));
  std::function<int(int)> Full = [](int X) { return -X; };
  Fn32 FromStd(Full);
  ASSERT_TRUE(FromStd);
  EXPECT_EQ(FromStd(4), -4);
}

//===--- Inside the simulator ---------------------------------------------===//

/// Schedules one event of each capture layout (inline, boxed) that
/// counts its fires; returns the handles.
std::vector<EventHandle> scheduleBoth(Simulator &Sim, Duration Delay,
                                      int *Live, int *Fired) {
  std::vector<EventHandle> Handles;
  Handles.push_back(Sim.schedule(
      Delay, [P = PaddedProbe<EventCallableBytes - 8>(Live), Fired] {
        (void)P;
        ++*Fired;
      }));
  Handles.push_back(Sim.schedule(
      Delay, [P = PaddedProbe<EventCallableBytes + 16>(Live), Fired] {
        (void)P;
        ++*Fired;
      }));
  return Handles;
}

TEST(InlineFunctionTest, SimulatorDestroysCapturesOnceWhenFired) {
  int Live = 0, Fired = 0;
  Simulator Sim;
  scheduleBoth(Sim, Duration::microseconds(5), &Live, &Fired);
  EXPECT_EQ(Live, 2);
  Sim.run();
  EXPECT_EQ(Fired, 2);
  EXPECT_EQ(Live, 0);
}

TEST(InlineFunctionTest, SimulatorDestroysCapturesOnceWhenStubDrains) {
  int Live = 0, Fired = 0;
  Simulator Sim;
  for (EventHandle &H : scheduleBoth(Sim, Duration::microseconds(5), &Live,
                                     &Fired))
    H.cancel();
  EXPECT_EQ(Live, 2); // lazily cancelled: still queued as stubs
  Sim.run();
  EXPECT_EQ(Fired, 0);
  EXPECT_EQ(Live, 0);
}

TEST(InlineFunctionTest, SimulatorDestroysCapturesOnceOnCompaction) {
  int Live = 0, Fired = 0;
  Simulator Sim;
  std::vector<EventHandle> Handles;
  // Half the stubs sit in the wheel, half in the overflow ladder.
  for (int I = 0; I < 40; ++I) {
    Duration D = I % 2 ? Duration::milliseconds(500 + I)
                       : Duration::microseconds(100 + I);
    for (EventHandle &H : scheduleBoth(Sim, D, &Live, &Fired))
      Handles.push_back(H);
  }
  for (EventHandle &H : Handles)
    H.cancel();
  EXPECT_EQ(Live, 80);
  uint64_t Before = Sim.queueCompactions();
  int Survivors = 0;
  Sim.schedule(Duration::milliseconds(1), [&] { ++Survivors; });
  ASSERT_GT(Sim.queueCompactions(), Before);
  EXPECT_EQ(Live, 0);
  EXPECT_EQ(Sim.pendingEvents(), 1u);
  Sim.run();
  EXPECT_EQ(Survivors, 1);
  EXPECT_EQ(Fired, 0);
  EXPECT_EQ(Live, 0);
}

TEST(InlineFunctionTest, SimulatorDestroysPendingCapturesOnTeardown) {
  int Live = 0, Fired = 0;
  {
    Simulator Sim;
    scheduleBoth(Sim, Duration::microseconds(5), &Live, &Fired);
    scheduleBoth(Sim, Duration::seconds(5), &Live, &Fired); // overflow
    std::vector<EventHandle> Cancelled =
        scheduleBoth(Sim, Duration::microseconds(7), &Live, &Fired);
    for (EventHandle &H : Cancelled)
      H.cancel();
    EXPECT_EQ(Live, 6);
  }
  EXPECT_EQ(Fired, 0);
  EXPECT_EQ(Live, 0);
}

} // namespace
