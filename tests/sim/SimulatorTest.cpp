//===- tests/sim/SimulatorTest.cpp - DES kernel tests ------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include <functional>
#include <memory>
#include <stdexcept>

#include <gtest/gtest.h>

using namespace greenweb;

TEST(SimulatorTest, ClockStartsAtOrigin) {
  Simulator Sim;
  EXPECT_EQ(Sim.now(), TimePoint::origin());
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator Sim;
  std::vector<int> Order;
  Sim.schedule(Duration::milliseconds(30), [&] { Order.push_back(3); });
  Sim.schedule(Duration::milliseconds(10), [&] { Order.push_back(1); });
  Sim.schedule(Duration::milliseconds(20), [&] { Order.push_back(2); });
  Sim.run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(Sim.now().millis(), 30.0);
}

TEST(SimulatorTest, TiesFireInSchedulingOrder) {
  Simulator Sim;
  std::vector<int> Order;
  for (int I = 0; I < 10; ++I)
    Sim.schedule(Duration::milliseconds(5), [&, I] { Order.push_back(I); });
  Sim.run();
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(Order[size_t(I)], I);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator Sim;
  bool Fired = false;
  Sim.schedule(Duration::milliseconds(-5), [&] { Fired = true; });
  Sim.run();
  EXPECT_TRUE(Fired);
  EXPECT_EQ(Sim.now(), TimePoint::origin());
}

TEST(SimulatorTest, ScheduleAtPastFiresAtCurrentTime) {
  Simulator Sim;
  Sim.schedule(Duration::milliseconds(10), [] {});
  Sim.run();
  TimePoint Before = Sim.now();
  bool Fired = false;
  Sim.scheduleAt(TimePoint::origin(), [&] { Fired = true; });
  Sim.run();
  EXPECT_TRUE(Fired);
  EXPECT_EQ(Sim.now(), Before);
}

TEST(SimulatorTest, EventsScheduledDuringEventsRun) {
  Simulator Sim;
  int Depth = 0;
  std::function<void()> Chain = [&] {
    if (++Depth < 5)
      Sim.schedule(Duration::milliseconds(1), Chain);
  };
  Sim.schedule(Duration::zero(), Chain);
  Sim.run();
  EXPECT_EQ(Depth, 5);
  EXPECT_EQ(Sim.now().millis(), 4.0);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator Sim;
  bool Fired = false;
  EventHandle H = Sim.schedule(Duration::milliseconds(1),
                               [&] { Fired = true; });
  EXPECT_TRUE(H.isActive());
  H.cancel();
  EXPECT_FALSE(H.isActive());
  Sim.run();
  EXPECT_FALSE(Fired);
}

TEST(SimulatorTest, CancelAfterFireIsNoOp) {
  Simulator Sim;
  EventHandle H = Sim.schedule(Duration::zero(), [] {});
  Sim.run();
  EXPECT_FALSE(H.isActive());
  H.cancel(); // must not crash or corrupt
}

TEST(SimulatorTest, RunWithLimitStops) {
  Simulator Sim;
  int Count = 0;
  for (int I = 0; I < 10; ++I)
    Sim.schedule(Duration::milliseconds(I), [&] { ++Count; });
  EXPECT_EQ(Sim.run(3), 3u);
  EXPECT_EQ(Count, 3);
  EXPECT_EQ(Sim.run(), 7u);
}

TEST(SimulatorTest, RunUntilAdvancesClockToDeadline) {
  Simulator Sim;
  bool Early = false, Late = false;
  Sim.schedule(Duration::milliseconds(5), [&] { Early = true; });
  Sim.schedule(Duration::milliseconds(50), [&] { Late = true; });
  Sim.runUntil(TimePoint::origin() + Duration::milliseconds(20));
  EXPECT_TRUE(Early);
  EXPECT_FALSE(Late);
  EXPECT_EQ(Sim.now().millis(), 20.0);
  Sim.run();
  EXPECT_TRUE(Late);
}

TEST(SimulatorTest, RunUntilInclusiveOfDeadline) {
  Simulator Sim;
  bool AtDeadline = false;
  Sim.schedule(Duration::milliseconds(20), [&] { AtDeadline = true; });
  Sim.runUntil(TimePoint::origin() + Duration::milliseconds(20));
  EXPECT_TRUE(AtDeadline);
}

TEST(SimulatorTest, IdleDetectsCancelledStubs) {
  Simulator Sim;
  EXPECT_TRUE(Sim.idle());
  EventHandle H = Sim.schedule(Duration::milliseconds(1), [] {});
  EXPECT_FALSE(Sim.idle());
  H.cancel();
  EXPECT_TRUE(Sim.idle());
}

/// Property: N interleaved schedulers produce exactly N events and a
/// monotone clock regardless of insertion order.
class SimulatorOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorOrderSweep, MonotoneClock) {
  Simulator Sim;
  int N = GetParam();
  std::vector<double> FireTimes;
  // Insert in reverse order to stress the heap.
  for (int I = N; I > 0; --I)
    Sim.schedule(Duration::milliseconds(I * 7 % 13),
                 [&] { FireTimes.push_back(Sim.now().millis()); });
  EXPECT_EQ(Sim.run(), uint64_t(N));
  for (size_t I = 1; I < FireTimes.size(); ++I)
    EXPECT_LE(FireTimes[I - 1], FireTimes[I]);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimulatorOrderSweep,
                         ::testing::Values(1, 2, 10, 100, 1000));

// --- Pooled control slab and lazy-deletion behavior -----------------------

TEST(SimulatorPoolTest, SlotsAreRecycledNotGrown) {
  Simulator Sim;
  // Sequential schedule/fire churn reuses one slot: the pool high-water
  // mark must stay tiny regardless of how many events ever existed.
  for (int I = 0; I < 1000; ++I) {
    Sim.schedule(Duration::microseconds(1), [] {});
    Sim.run();
  }
  EXPECT_LE(Sim.controlSlots(), 2u);
}

TEST(SimulatorPoolTest, StaleHandleNeverTouchesRecycledSlot) {
  Simulator Sim;
  bool SecondFired = false;
  EventHandle First = Sim.schedule(Duration::microseconds(1), [] {});
  Sim.run();
  // The slot is free again; the next event reuses it with a bumped
  // generation. Cancelling through the stale handle must be inert.
  EventHandle Second =
      Sim.schedule(Duration::microseconds(1), [&] { SecondFired = true; });
  First.cancel();
  EXPECT_TRUE(Second.isActive());
  Sim.run();
  EXPECT_TRUE(SecondFired);
}

TEST(SimulatorPoolTest, CancellationStatsTrackStubsAndDrains) {
  Simulator Sim;
  std::vector<EventHandle> Handles;
  for (int I = 0; I < 10; ++I)
    Handles.push_back(Sim.schedule(Duration::milliseconds(I + 1), [] {}));
  for (int I = 0; I < 4; ++I)
    Handles[size_t(I)].cancel();
  EXPECT_EQ(Sim.cancelledPending(), 4u);
  EXPECT_EQ(Sim.totalCancelled(), 4u);
  EXPECT_EQ(Sim.pendingEvents(), 10u); // stubs still queued (lazy)
  Sim.run();
  EXPECT_EQ(Sim.cancelledPending(), 0u); // stubs drained at pop
  EXPECT_EQ(Sim.totalCancelled(), 4u);
}

TEST(SimulatorPoolTest, CompactionEvictsStubsInBulk) {
  Simulator Sim;
  std::vector<EventHandle> Handles;
  for (int I = 0; I < 200; ++I)
    Handles.push_back(
        Sim.schedule(Duration::milliseconds(I + 1000), [] {}));
  for (EventHandle &H : Handles)
    H.cancel();
  EXPECT_EQ(Sim.cancelledPending(), 200u);
  // The next schedule sees stubs dominating a large queue and compacts.
  bool Fired = false;
  Sim.schedule(Duration::milliseconds(1), [&] { Fired = true; });
  EXPECT_GE(Sim.queueCompactions(), 1u);
  EXPECT_EQ(Sim.cancelledPending(), 0u);
  EXPECT_EQ(Sim.pendingEvents(), 1u);
  Sim.run();
  EXPECT_TRUE(Fired);
}

TEST(SimulatorPoolTest, DeterministicOrderUnderCancellationChurn) {
  // A run whose decoy events are scheduled then cancelled must fire the
  // surviving events in the same order and at the same instants as a
  // run that never scheduled the decoys: cancellation stubs and slot
  // recycling must not perturb (When, Seq) ordering of survivors.
  auto Run = [](bool WithDecoys) {
    Simulator Sim;
    std::vector<std::pair<int, double>> Fires;
    std::vector<EventHandle> Decoys;
    for (int I = 0; I < 100; ++I) {
      int When = (I * 7) % 23;
      Sim.schedule(Duration::milliseconds(When), [&Fires, I, &Sim] {
        Fires.push_back({I, Sim.now().millis()});
      });
      if (WithDecoys)
        Decoys.push_back(Sim.schedule(Duration::milliseconds(When),
                                      [] { ADD_FAILURE(); }));
    }
    for (EventHandle &H : Decoys)
      H.cancel();
    Sim.run();
    return Fires;
  };
  EXPECT_EQ(Run(false), Run(true));
}

TEST(SimulatorPoolTest, CallbackCapturesReleasedAfterFire) {
  Simulator Sim;
  auto Token = std::make_shared<int>(42);
  std::weak_ptr<int> Weak = Token;
  Sim.schedule(Duration::microseconds(1), [Token] { (void)*Token; });
  Token.reset();
  EXPECT_FALSE(Weak.expired());
  Sim.run();
  // The payload slot must not keep the closure (and its captures) alive
  // after the event fired.
  EXPECT_TRUE(Weak.expired());
}

TEST(SimulatorPoolTest, CancelledCallbackCapturesReleasedOnDrain) {
  Simulator Sim;
  auto Token = std::make_shared<int>(7);
  std::weak_ptr<int> Weak = Token;
  EventHandle H = Sim.schedule(Duration::microseconds(1), [Token] {});
  Token.reset();
  H.cancel();
  Sim.run(); // drains the stub
  EXPECT_TRUE(Weak.expired());
}

TEST(SimulatorPoolTest, HandleOutlivesSimulator) {
  EventHandle H;
  {
    Simulator Sim;
    H = Sim.schedule(Duration::milliseconds(1), [] {});
  }
  // The shared slab keeps the handle's view alive; touching it must be
  // a harmless slab update, not use-after-free.
  H.cancel();
  EXPECT_FALSE(H.isActive());
}

TEST(SimulatorTest, EmptyCallbackIsRefusedAtScheduleTime) {
  Simulator Sim;
  std::function<void()> Empty;
  void (*NullFn)() = nullptr;
  EXPECT_THROW(Sim.schedule(Duration::milliseconds(1), EventCallback()),
               std::invalid_argument);
  EXPECT_THROW(Sim.schedule(Duration::milliseconds(1), Empty),
               std::invalid_argument);
  EXPECT_THROW(Sim.scheduleAt(Sim.now(), NullFn), std::invalid_argument);
  EXPECT_THROW(Sim.scheduleAt(Sim.now(), nullptr), std::invalid_argument);
  // A refused schedule leaves no trace in the queue.
  EXPECT_EQ(Sim.pendingEvents(), 0u);
  EXPECT_EQ(Sim.controlSlots(), 0u);
  EXPECT_EQ(Sim.run(), 0u);
}

TEST(SimulatorPoolTest, CancelledCaptureReleasedWhenItsStubDrains) {
  // Both capture layouts: one inline in the payload table, one boxed
  // because it exceeds the inline budget.
  for (bool Boxed : {false, true}) {
    Simulator Sim;
    auto Token = std::make_shared<int>(3);
    std::weak_ptr<int> Weak = Token;
    EventHandle H;
    if (Boxed) {
      struct {
        char Pad[EventCallableBytes] = {};
      } Big;
      H = Sim.schedule(Duration::microseconds(1),
                       [Token, Big] { (void)Big.Pad[0]; });
    } else {
      H = Sim.schedule(Duration::microseconds(1), [Token] {});
    }
    Token.reset();
    H.cancel();
    EXPECT_FALSE(Weak.expired()) << "boxed " << Boxed;
    // The next live event fires right after the stub surfaces: the
    // capture must already be gone, not merely released at teardown.
    bool ExpiredAtNext = false;
    Sim.schedule(Duration::microseconds(2),
                 [&] { ExpiredAtNext = Weak.expired(); });
    Sim.run();
    EXPECT_TRUE(ExpiredAtNext) << "boxed " << Boxed;
  }
}
