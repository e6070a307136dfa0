//===- tests/sim/EventKernelParityTest.cpp - Kernel differential ----------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Randomized differential test between the simulator's calendar
// queue and the binary-heap reference queue
// (tests/common/ReferenceEventQueue.h): the same self-scheduling
// program — a mix of schedules, cancellations, and reschedules with
// delays spanning same-bucket, cross-bucket, and beyond-horizon
// (overflow ladder) ranges — must fire events in exactly the same
// (When, Seq) order on both. Any ordering divergence desynchronizes the
// two runs' Rng streams and shows up as a difference in the recorded
// (time, id) firing logs.
//
//===----------------------------------------------------------------------===//

#include "ReferenceEventQueue.h"
#include "sim/Simulator.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

using namespace greenweb;
using reference::ReferenceEventQueue;

namespace {

struct FiringLog {
  /// (fire time in ns, program-assigned event id), in firing order.
  std::vector<std::pair<int64_t, uint64_t>> Fired;
  uint64_t Scheduled = 0;
  uint64_t Cancelled = 0;
};

/// Runs the randomized program on a fresh \p Queue (Simulator or
/// ReferenceEventQueue) and returns its firing log. The program is
/// fully deterministic given the seed *and* the firing order, which is
/// the property under test.
template <class Queue>
FiringLog runProgram(uint64_t Seed, uint64_t TargetEvents) {
  using Handle = decltype(std::declval<Queue &>().schedule(Duration(), {}));
  Queue Sim;
  Rng R(Seed);
  FiringLog Log;
  std::vector<std::pair<Handle, uint64_t>> Pending;

  // Delay classes: zero (same-timestamp batch), sub-bucket (< 65.5 us),
  // mid-range, and far beyond the wheel horizon (~134 ms) to force the
  // overflow ladder and horizon advances.
  auto PickDelay = [&R]() -> Duration {
    switch (R.uniformInt(0, 3)) {
    case 0:
      return Duration::zero();
    case 1:
      return Duration::nanoseconds(R.uniformInt(1, 60000));
    case 2:
      return Duration::microseconds(R.uniformInt(1, 5000));
    default:
      return Duration::milliseconds(R.uniformInt(100, 900));
    }
  };

  std::function<void(uint64_t)> OnFire = [&](uint64_t Id) {
    Log.Fired.push_back({(Sim.now() - TimePoint::origin()).nanos(), Id});
    // Keep the queue busy until the program has issued its quota.
    int Spawn = int(R.uniformInt(0, 2));
    for (int I = 0; I < Spawn && Log.Scheduled < TargetEvents; ++I) {
      uint64_t NewId = Log.Scheduled++;
      Handle H = Sim.schedule(PickDelay(), [&, NewId] { OnFire(NewId); });
      Pending.push_back({H, NewId});
    }
    // Occasionally cancel a random pending event; half the time
    // reschedule it (cancel + fresh schedule at a new delay).
    if (!Pending.empty() && R.chance(0.3)) {
      size_t Victim = size_t(R.uniformInt(0, int64_t(Pending.size()) - 1));
      Pending[Victim].first.cancel();
      ++Log.Cancelled;
      if (R.chance(0.5) && Log.Scheduled < TargetEvents) {
        uint64_t NewId = Log.Scheduled++;
        Handle H = Sim.schedule(PickDelay(), [&, NewId] { OnFire(NewId); });
        Pending[Victim] = {H, NewId};
      } else {
        Pending.erase(Pending.begin() + int64_t(Victim));
      }
    }
  };

  // Seed burst: enough initial parallelism to mix timestamp batches.
  for (int I = 0; I < 64; ++I) {
    uint64_t Id = Log.Scheduled++;
    Handle H = Sim.schedule(PickDelay(), [&, Id] { OnFire(Id); });
    Pending.push_back({H, Id});
  }
  Sim.run();
  EXPECT_TRUE(Sim.idle());
  return Log;
}

TEST(EventKernelParityTest, CalendarMatchesHeapOrderOver100kEvents) {
  const uint64_t Target = 100000;
  FiringLog Heap = runProgram<ReferenceEventQueue>(0xFEED, Target);
  FiringLog Calendar = runProgram<Simulator>(0xFEED, Target);

  ASSERT_EQ(Heap.Scheduled, Target);
  ASSERT_EQ(Calendar.Scheduled, Target);
  EXPECT_EQ(Heap.Cancelled, Calendar.Cancelled);
  ASSERT_EQ(Heap.Fired.size(), Calendar.Fired.size());
  // Element-wise comparison so a failure reports the first divergence
  // instead of dumping both logs.
  for (size_t I = 0; I < Heap.Fired.size(); ++I) {
    ASSERT_EQ(Heap.Fired[I], Calendar.Fired[I])
        << "first (When, Seq) order divergence at firing #" << I;
  }
}

TEST(EventKernelParityTest, OrderHoldsAcrossSeeds) {
  for (uint64_t Seed : {1ull, 7ull, 1234567ull}) {
    FiringLog Heap = runProgram<ReferenceEventQueue>(Seed, 5000);
    FiringLog Calendar = runProgram<Simulator>(Seed, 5000);
    ASSERT_EQ(Heap.Fired.size(), Calendar.Fired.size()) << "seed " << Seed;
    for (size_t I = 0; I < Heap.Fired.size(); ++I)
      ASSERT_EQ(Heap.Fired[I], Calendar.Fired[I])
          << "seed " << Seed << ": first divergence at firing #" << I;
  }
}

TEST(EventKernelParityTest, TelemetryCountersMatchRecordedValues) {
  // The exported sim.* counters derive from these three numbers; the
  // expected triple was recorded from both the heap and the calendar
  // kernel when the simulator still carried both. Compaction only runs
  // at schedule time, so cancelling after the last schedule leaves all
  // 1500 stubs to drain lazily (CompactionEvictsStubsInBulk in
  // SimulatorTest covers the compacting path).
  Simulator Sim;
  Rng R(99);
  std::vector<EventHandle> Handles;
  for (int I = 0; I < 2000; ++I)
    Handles.push_back(Sim.schedule(
        Duration::microseconds(R.uniformInt(0, 300000)), [] {}));
  for (int I = 0; I < 1500; ++I)
    Handles[size_t(I)].cancel();
  uint64_t Fired = Sim.run();
  EXPECT_EQ(Fired, 500u);
  EXPECT_EQ(Sim.totalCancelled(), 1500u);
  EXPECT_EQ(Sim.queueCompactions(), 0u);
}

TEST(EventKernelParityTest, LiveEventCountAndIdleAreExact) {
  Simulator Sim;
  EXPECT_TRUE(Sim.idle());
  EventHandle A = Sim.schedule(Duration::milliseconds(1), [] {});
  EventHandle B = Sim.schedule(Duration::milliseconds(2), [] {});
  Sim.schedule(Duration::milliseconds(3), [] {});
  EXPECT_EQ(Sim.liveEvents(), 3u);
  EXPECT_FALSE(Sim.idle());
  A.cancel();
  EXPECT_EQ(Sim.liveEvents(), 2u);
  EXPECT_EQ(Sim.pendingEvents(), 3u); // stub still queued
  B.cancel();
  EXPECT_EQ(Sim.liveEvents(), 1u);
  EXPECT_FALSE(Sim.idle());
  EXPECT_EQ(Sim.run(), 1u);
  EXPECT_TRUE(Sim.idle());
  EXPECT_EQ(Sim.liveEvents(), 0u);
}

} // namespace
