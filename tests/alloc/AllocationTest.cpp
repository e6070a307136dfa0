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
// A second gate holds the telemetry record path to the same rule in the
// hub shape every fleet item runs: log capacity 0, detectors and flight
// recorder on, tracing off. Frame stages, energy samples, config
// switches, governor decisions and their decision spans must reach the
// metrics, the recorder ring and the detectors without allocating.
//
// It also holds a cold page load to an allocation budget per element:
// parseHtml of a fixed app page, and Browser::loadPage with the
// annotation scan the experiments run at load.
//
//===----------------------------------------------------------------------===//

#include "browser/Browser.h"
#include "greenweb/AnnotationRegistry.h"
#include "html/HtmlParser.h"
#include "hw/AcmpChip.h"
#include "hw/EnergyMeter.h"
#include "sim/SimThread.h"
#include "sim/Simulator.h"
#include "telemetry/AnomalyDetector.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/Telemetry.h"
#include "workloads/Apps.h"

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

/// A steady, trigger-free record stream into a fleet-shaped hub. Each
/// 16 ms frame records its seven stages and four 1 ms-spaced energy
/// samples; every fourth frame also records a governor decision with
/// its (untraced) decision span and a config switch. Latencies, energy
/// per frame and decision rate are constant, so no detector alerts and
/// no flight-recorder trigger fires.
struct RecordStream {
  Telemetry Tel;
  int64_t NowNs = 0;
  int64_t Frame = 0;
  uint64_t Records = 0;
  double Joules = 0.0;
  FrameStageRecord Stage;
  EnergySampleRecord Sample{1.5, 0.0, 12};
  GovernorDecisionRecord Decision{"GreenWeb-I", "predicted", "A15@1200MHz",
                                  1, 1200, 0, "div|touchmove|continuous",
                                  9.5, 16.7, 0};
  ConfigSwitchRecord Switches[2] = {
      {"A7@500MHz", "A15@1200MHz", 1, 1200, 1, 1, 120.0},
      {"A15@1200MHz", "A7@500MHz", 0, 500, 1, 1, 120.0}};
  std::string SpanName = "decision:predicted";

  RecordStream() {
    Tel.setClock([this] { return TimePoint::fromNanos(NowNs); });
    Tel.setLogCapacity(0);
    Tel.enableAnomalyDetectors();
    Tel.enableFlightRecorder();
  }

  void frame() {
    static const char *const Stages[] = {"animate", "style",   "layout",
                                         "paint",   "composite", "present"};
    ++Frame;
    for (int I = 0; I < 4; ++I) {
      NowNs += 1'000'000;
      Joules += 0.004;
      Sample.CumulativeJoules = Joules;
      Tel.recordEnergySample(Sample);
    }
    Stage.FrameId = Frame;
    for (const char *Name : Stages) {
      Stage.Stage = Name;
      Stage.DurationMs = 1.5;
      Tel.recordFrameStage(Stage);
    }
    Stage.Stage = "total";
    Stage.DurationMs = 9.0;
    Tel.recordFrameStage(Stage);
    Records += 11;
    if (Frame % 4 == 0) {
      Decision.RootId = Frame;
      Tel.recordGovernorDecision(Decision);
      SpanTracer &Tr = Tel.spans();
      Tr.end(Tr.begin(SpanName, "governor", Frame, 0, /*Parent=*/0));
      Tel.recordConfigSwitch(Switches[(Frame / 4) % 2]);
      Records += 2;
    }
    NowNs += 12'000'000;
  }
};

TEST(AllocationTest, FleetShapedRecordPathDoesNotAllocate) {
  auto S = std::make_unique<RecordStream>();
  // Warm-up: every recorder lane fills its 256 slots (the decision
  // lane, one row per 46 records, after ~12k records), and the detector
  // windows and per-stage metric handles reach their steady sizes.
  while (S->Records < 20000)
    S->frame();

  uint64_t RecordsBefore = S->Records;
  uint64_t Before = Allocations.load(std::memory_order_relaxed);
  while (S->Records - RecordsBefore < 10000)
    S->frame();
  uint64_t After = Allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(After - Before, 0u) << "allocations in 10k steady-state records";
  // The window really took the observed, capacity-0 path.
  EXPECT_EQ(S->Tel.log().size(), 0u);
  EXPECT_EQ(S->Tel.metrics().findCounter("telemetry.dropped_records")->value(),
            S->Records);
  EXPECT_EQ(S->Tel.detectors()->alertsEmitted(), 0u);
  EXPECT_EQ(S->Tel.flightRecorder()->triggers(), 0u);
  EXPECT_TRUE(S->Tel.spans().spans().empty());
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

TEST(AllocationTest, ColdPageLoadStaysWithinItsBudget) {
  // Allocations per element of the page's tree. The DOM keeps elements
  // in document-owned chunks and their classes, first attribute and
  // first two children inline, and the annotation scan matches only
  // elements that hit a QoS subject key. Measured on Goo.ne.jp (seed 1,
  // 322 elements): parse 0.283, cold load 0.972. One heap node per
  // element and per attribute, with a full scan, read 5.3 and 6.9
  // averaged over the 12 app pages.
  constexpr double ParseBudget = 0.35;
  constexpr double LoadBudget = 1.2;
  std::string Html = makeApp("Goo.ne.jp", 1).Html;

  uint64_t Before = Allocations.load(std::memory_order_relaxed);
  html::ParseResult Parsed = html::parseHtml(Html);
  uint64_t ParseAllocs = Allocations.load(std::memory_order_relaxed) - Before;
  ASSERT_TRUE(Parsed.Doc);
  double Elements = double(Parsed.Doc->elementCount());

  Simulator Sim;
  AcmpChip Chip(Sim);
  Browser B(Sim, Chip);
  AnnotationRegistry Registry;
  B.OnPageParsed = [&] { Registry.loadFromPage(B); };
  Before = Allocations.load(std::memory_order_relaxed);
  ASSERT_NE(B.loadPage(Html), 0u);
  uint64_t LoadAllocs = Allocations.load(std::memory_order_relaxed) - Before;
  ASSERT_GT(Registry.size(), 0u);

  EXPECT_LE(double(ParseAllocs) / Elements, ParseBudget)
      << ParseAllocs << " allocations parsing " << Elements << " elements";
  EXPECT_LE(double(LoadAllocs) / Elements, LoadBudget)
      << LoadAllocs << " allocations loading " << Elements << " elements";
}

} // namespace
