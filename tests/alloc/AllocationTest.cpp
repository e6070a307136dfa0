//===- tests/alloc/AllocationTest.cpp - Event hot path allocation gate ----===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Allocation regression gate for the event hot path. This binary
// replaces the global operator new with a counting one (hence a test
// binary of its own), warms a small steady-state workload up, and then
// requires 10,000 further events to allocate nothing. The workload
// covers every per-event producer that must stay off the allocator:
//
//   - SimThread post and complete, with ComputeCost/OnComplete closures
//     at the inline limit (EventCallableBytes);
//   - SimThread::postDelayed timers;
//   - Browser::scheduleGuarded timers (lifetime-guarded events);
//   - AcmpChip::setConfig, which stalls and replans in-flight tasks
//     (cancelling and rescheduling their completions);
//   - EnergyMeter integration on every busy/idle flip and config change.
//
//===----------------------------------------------------------------------===//

#include "browser/Browser.h"
#include "hw/AcmpChip.h"
#include "hw/EnergyMeter.h"
#include "sim/SimThread.h"
#include "sim/Simulator.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

namespace {
std::atomic<uint64_t> Allocations{0};

void *countedAlloc(std::size_t Size) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace greenweb;

namespace {

/// A self-sustaining event mix. Every tick posts work to two
/// threads, arms a delayed post and a guarded browser timer, and every
/// fourth tick flips the chip configuration; the next tick is scheduled
/// from inside the tick, so the queue never runs dry.
struct SteadyWorkload {
  Simulator Sim;
  AcmpChip Chip{Sim};
  EnergyMeter Meter{Chip};
  Browser B{Sim, Chip};
  SimThread Worker{Sim, Chip, "worker", 3};
  SimThread Helper{Sim, Chip, "helper", 4};

  uint64_t Ticks = 0;
  uint64_t Completed = 0;
  uint64_t CostCalls = 0;
  uint64_t GuardedFired = 0;

  /// Payload that pads a closure to the inline limit.
  struct Pad {
    char Bytes[EventCallableBytes - 2 * sizeof(void *)] = {};
  };

  SimTask task(double Cycles) {
    SimTask T;
    T.Label = "work";
    T.Cost.Cycles = Cycles;
    // Both closures are exactly EventCallableBytes: two pointers + pad.
    T.ComputeCost = [this, Cycles, P = Pad()]() -> TaskCost {
      (void)P;
      ++CostCalls;
      return {Duration::microseconds(5), Cycles};
    };
    T.OnComplete = [this, Counter = &Completed, P = Pad()] {
      (void)P;
      ++*Counter;
    };
    return T;
  }

  void tick() {
    ++Ticks;
    Worker.post(task(20e3));
    Helper.post(task(10e3));
    Worker.postDelayed(task(5e3), Duration::microseconds(30));
    B.scheduleGuarded(Duration::microseconds(40), [this] { ++GuardedFired; });
    if (Ticks % 4 == 0)
      Chip.setConfig(Ticks % 8 == 0 ? AcmpConfig{CoreKind::Big, 1200}
                                    : AcmpConfig{CoreKind::Little, 500});
    Sim.schedule(Duration::microseconds(200), [this] { tick(); });
  }
};

TEST(AllocationTest, SteadyStateEventsDoNotAllocate) {
  static_assert(sizeof(SteadyWorkload::Pad) + 2 * sizeof(void *) ==
                EventCallableBytes);
  auto W = std::make_unique<SteadyWorkload>();
  W->Chip.setConfig({CoreKind::Big, 1200});
  W->tick();
  // Warm-up: queues, pools, the payload table and the config-time map
  // reach their steady-state sizes.
  ASSERT_EQ(W->Sim.run(20000), 20000u);

  uint64_t TicksBefore = W->Ticks;
  uint64_t CompletedBefore = W->Completed;
  uint64_t GuardedBefore = W->GuardedFired;
  double JoulesBefore = W->Meter.totalJoules();
  uint64_t Before = Allocations.load(std::memory_order_relaxed);
  uint64_t Fired = W->Sim.run(10000);
  uint64_t After = Allocations.load(std::memory_order_relaxed);

  ASSERT_EQ(Fired, 10000u);
  EXPECT_EQ(After - Before, 0u) << "allocations in 10k steady-state events";
  // The window really ran every producer.
  EXPECT_GT(W->Ticks - TicksBefore, 100u);
  EXPECT_GT(W->Completed - CompletedBefore, 300u);
  EXPECT_GT(W->GuardedFired - GuardedBefore, 100u);
  EXPECT_GT(W->Chip.freqSwitches() + W->Chip.migrations(), 100u);
  EXPECT_GT(W->Meter.totalJoules(), JoulesBefore);
}

TEST(AllocationTest, CounterSeesBoxedCaptures) {
  // Sanity check of the gate itself: a capture at the inline limit
  // allocates nothing, one beyond it is boxed, and the counter sees
  // exactly that one allocation.
  struct AtLimit {
    char Bytes[EventCallableBytes] = {};
  };
  struct Beyond {
    char Bytes[EventCallableBytes + 8] = {};
  };
  uint64_t Before = Allocations.load(std::memory_order_relaxed);
  EventCallback Inline([A = AtLimit()] { (void)A; });
  uint64_t Mid = Allocations.load(std::memory_order_relaxed);
  EventCallback Boxed([B = Beyond()] { (void)B; });
  uint64_t After = Allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(Mid - Before, 0u);
  EXPECT_EQ(After - Mid, 1u);
}

} // namespace
