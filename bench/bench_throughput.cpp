//===- bench/bench_throughput.cpp - simulation throughput harness ---------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Measures the hot paths the throughput work targets, each against the
// reference implementation its differential tests use (tests/common/):
//
//   1. Event kernel: events/sec through the simulator's calendar queue
//      vs the binary-heap ReferenceEventQueue, on coalesced and on
//      scattered timer churn.
//   2. Style resolution: recalcs/sec through the bucketed rule index
//      (cold after mutations, warm from the per-element cache) vs the
//      naive O(rules x selectors) referenceMatchRules scan.
//   3. Warm start: a repeat experiment run restoring shared page assets
//      from a prewarmed WarmCache (snapshot clone + shared rule index +
//      adopted style cache) vs a cold parse-everything run.
//   4. Frame pipeline vs DOM size: host ns per requestAnimationFrame
//      frame on pages with 100 / 1,000 / 10,000 filler elements. The
//      style and layout stages price every node, so they must read the
//      node count without walking the tree; the 10k/100 ratio is gated.
//
// Sweep scaling (--jobs=1 vs N) is measured on a whole fleet plan, where
// it is large enough to read: see the fleet-smoke CI job.
//
// Writes BENCH_throughput.json (override with --json=<path>); the
// committed copy at the repo root records the numbers for the
// environment that produced it — regenerate with:
//
//   build/bench/bench_throughput --json=BENCH_throughput.json
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "ReferenceEventQueue.h"
#include "ReferenceStyleMatch.h"
#include "browser/Browser.h"
#include "css/CssParser.h"
#include "css/StyleResolver.h"
#include "dom/Dom.h"
#include "hw/AcmpChip.h"
#include "sim/Simulator.h"
#include "support/StringUtils.h"
#include "workloads/Experiment.h"
#include "workloads/WorkloadAssets.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace greenweb;
using reference::ReferenceEventQueue;
using bench::Measurement;
using bench::measure;

namespace {

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// Steady-state timer churn, the shape the simulator actually sees.
/// Self-rescheduling chains keep a standing queue and every third fire
/// also schedules-and-cancels a decoy (exercising handle + lazy-cancel
/// costs); the round retires once Count fires have run. Two re-arm
/// patterns:
///
///  - Coalesced (the primary kernel comparison): every chain re-arms
///    onto the next 1 ms-aligned deadline, the way real browser work
///    clusters — vsync ticks, coalesced timers, DVFS epochs. Events
///    pile up at shared timestamps, so a kernel's batch-drain behavior
///    dominates: the calendar pops a whole cluster with cursor bumps
///    off one already-sorted bucket, while a heap pays a full
///    O(log n) sift per pop.
///
///  - Scattered: each chain re-arms a fixed 100 us out, timestamps
///    spread uniformly, queue stays shallow. Per-event fixed overhead
///    dominates and no kernel has much structural advantage; kept as
///    the honest lower bound on the calendar's win.
template <class Kernel> struct ChurnCtx {
  Kernel K;
  uint64_t Fires = 0;
  uint64_t Budget = 0;
  uint64_t Scheduled = 0;
  bool Coalesced = false;
};

template <class Kernel> void churnTick(ChurnCtx<Kernel> *C) {
  ++C->Fires;
  if (C->Budget == 0)
    return;
  --C->Budget;
  ++C->Scheduled;
  if (C->Coalesced) {
    // Next 1 ms boundary at least 100 us out.
    int64_t NowNs = C->K.now().nanos();
    int64_t Next = ((NowNs + 100'000) / 1'000'000 + 1) * 1'000'000;
    C->K.scheduleAt(TimePoint() + Duration::nanoseconds(Next),
                    [C] { churnTick(C); });
  } else {
    C->K.schedule(Duration::microseconds(100), [C] { churnTick(C); });
  }
  if (C->Fires % 3 == 0) {
    ++C->Scheduled;
    auto Decoy =
        C->K.schedule(Duration::microseconds(150), [C] { churnTick(C); });
    Decoy.cancel();
  }
}

template <class Kernel>
uint64_t eventChurnRound(unsigned Count, unsigned Chains, bool Coalesced) {
  ChurnCtx<Kernel> C;
  C.Budget = Count;
  C.Coalesced = Coalesced;
  for (unsigned I = 0; I < Chains && C.Budget > 0; ++I) {
    --C.Budget;
    ++C.Scheduled;
    C.K.schedule(Duration::nanoseconds(int64_t(I) * 97),
                 [&C] { churnTick(&C); });
  }
  C.K.run();
  return C.Scheduled; // Ops = every scheduled event, fired or cancelled.
}

struct StyleWorld {
  Document Doc;
  css::Stylesheet Sheet;
  std::vector<Element *> Elements;
};

/// A stylesheet with every selector shape the index buckets: compound
/// id/class/tag subjects, :QoS qualifiers, descendant and child
/// combinators, and a few universal rules.
std::unique_ptr<StyleWorld> makeStyleWorld(int Rules, int Elements) {
  auto W = std::make_unique<StyleWorld>();
  std::string Src;
  for (int I = 0; I < Rules; ++I) {
    switch (I % 5) {
    case 0:
      Src += formatString("div#id-%d.cls-%d:QoS { width: %dpx; "
                          "onclick-qos: single, short; }\n",
                          I, I % 7, I);
      break;
    case 1:
      Src += formatString(".cls-%d { color: c%d; }\n", I % 7, I);
      break;
    case 2:
      Src += formatString("#id-%d .cls-%d { margin: %dpx; }\n", I % 31,
                          I % 7, I);
      break;
    case 3:
      Src += formatString("div.cls-%d > span { padding: %dpx; }\n",
                          I % 7, I);
      break;
    default:
      Src += formatString("span#sid-%d { border: %dpx; }\n", I, I);
      break;
    }
  }
  Src += "* { display: inline; }\n";
  W->Sheet = css::parseStylesheet(Src);

  Element *Branch = &W->Doc.root();
  for (int I = 0; I < Elements; ++I) {
    const char *Tag = I % 3 == 0 ? "div" : (I % 3 == 1 ? "span" : "p");
    // Mix depths: every eighth element starts a new branch off root.
    if (I % 8 == 0)
      Branch = W->Doc.root().createChild("div");
    Element *E = Branch->createChild(Tag);
    E->setId(formatString("id-%d", I));
    E->addClass(formatString("cls-%d", I % 7));
    W->Elements.push_back(E);
    Branch = I % 4 == 0 ? E : Branch;
  }
  return W;
}

/// Host cost of the frame pipeline on a page with \p Fillers inert
/// elements and one rAF loop writing an inline style every frame. Each
/// round advances 500 ms of simulated time; ops are the frames it
/// presented.
Measurement frameHostCost(int Fillers) {
  std::string Html = "<div id=a></div>";
  for (int I = 0; I < Fillers; ++I)
    Html += "<div class=f></div>";
  Html += R"(<script>
    function step() {
      document.getElementById('a').style.x = now();
      requestAnimationFrame(step);
    }
    requestAnimationFrame(step);
  </script>)";
  Simulator Sim;
  AcmpChip Chip(Sim);
  Chip.setConfig(Chip.spec().maxConfig());
  Browser B(Sim, Chip);
  B.loadPage(Html);
  Sim.runUntil(Sim.now() + Duration::seconds(1)); // load settles
  return measure([&] {
    size_t Before = B.frameTracker().frames().size();
    Sim.runUntil(Sim.now() + Duration::milliseconds(500));
    return uint64_t(B.frameTracker().frames().size() - Before);
  });
}

} // namespace

int main(int Argc, char **Argv) {
  bench::Harness Run("bench_throughput", Argc, Argv);
  if (Run.JsonPath.empty())
    Run.JsonPath = "BENCH_throughput.json";
  bench::banner("Simulation throughput",
                "Event-kernel, style-resolver, and parallel-sweep "
                "wall-clock performance (infrastructure, not paper data)");

  constexpr unsigned ChurnEvents = 50'000;
  constexpr unsigned ChurnChains = 1'024;

  // --- 1. Event kernel ---
  Measurement Heap = measure([] {
    return eventChurnRound<ReferenceEventQueue>(ChurnEvents, ChurnChains, true);
  });
  Measurement Calendar = measure([] {
    return eventChurnRound<Simulator>(ChurnEvents, ChurnChains, true);
  });
  double CalendarSpeedup =
      Calendar.nsPerOp() > 0 ? Heap.nsPerOp() / Calendar.nsPerOp() : 0;

  TablePrinter Kernel("Event kernel (coalesced churn: 1024 chains on 1ms "
                      "deadlines, 1/3 decoys cancelled)");
  Kernel.row().cell("kernel").cell("ns/event").cell("events/sec");
  Kernel.row()
      .cell("reference binary heap")
      .cell(Heap.nsPerOp(), 1)
      .cell(Heap.opsPerSec(), 0);
  Kernel.row()
      .cell("calendar queue (Simulator)")
      .cell(Calendar.nsPerOp(), 1)
      .cell(Calendar.opsPerSec(), 0);
  Kernel.print();
  std::printf("event-kernel speedup: %.2fx calendar vs reference heap\n\n",
              CalendarSpeedup);

  Run.Json.metric("event_kernel_reference_heap", Heap.Ops, Heap.nsPerOp(),
                  "events_per_sec", Heap.opsPerSec(), "", Heap.SamplesNsPerOp);
  Run.Json.metric("event_kernel_calendar", Calendar.Ops, Calendar.nsPerOp(),
                  "events_per_sec", Calendar.opsPerSec(), "",
                  Calendar.SamplesNsPerOp);
  Run.Json.scalar("event_kernel_calendar_speedup", CalendarSpeedup, "x");

  // Scattered variant: shallow 32-chain queue, uniform 100 us re-arms.
  // No batch-drain advantage here; this is the calendar's worst case,
  // roughly a tie with the reference heap, and is not gated.
  Measurement ScatHeap = measure([] {
    return eventChurnRound<ReferenceEventQueue>(10'000, 32, false);
  });
  Measurement ScatCal =
      measure([] { return eventChurnRound<Simulator>(10'000, 32, false); });
  double ScatSpeedup =
      ScatCal.nsPerOp() > 0 ? ScatHeap.nsPerOp() / ScatCal.nsPerOp() : 0;
  std::printf("scattered churn (32 chains): reference heap %.1f ns/ev, "
              "calendar %.1f ns/ev (%.2fx)\n\n",
              ScatHeap.nsPerOp(), ScatCal.nsPerOp(), ScatSpeedup);
  Run.Json.metric("event_churn_scattered_reference_heap", ScatHeap.Ops,
                  ScatHeap.nsPerOp(), "events_per_sec", ScatHeap.opsPerSec(),
                  "", ScatHeap.SamplesNsPerOp);
  Run.Json.metric("event_churn_scattered_calendar", ScatCal.Ops,
                  ScatCal.nsPerOp(), "events_per_sec", ScatCal.opsPerSec(),
                  "", ScatCal.SamplesNsPerOp);
  Run.Json.scalar("event_churn_scattered_speedup", ScatSpeedup, "x");

  // --- 2. Style resolution ---
  auto W = makeStyleWorld(400, 160);
  css::StyleResolver Resolver(W->Sheet);
  auto RecalcAll = [&](bool Naive, bool Mutate) {
    if (Mutate)
      W->Doc.bumpStyleVersion(); // Invalidates every cache entry.
    uint64_t Matched = 0;
    for (Element *E : W->Elements)
      Matched += Naive ? reference::referenceMatchRules(W->Sheet, *E).size()
                       : Resolver.matchRules(*E).size();
    // Ops = elements recalculated; fold Matched in so the work cannot
    // be optimized away.
    return uint64_t(W->Elements.size()) + (Matched & 0);
  };

  Measurement Naive =
      measure([&] { return RecalcAll(/*Naive=*/true, /*Mutate=*/true); });
  Measurement Cold =
      measure([&] { return RecalcAll(/*Naive=*/false, /*Mutate=*/true); });
  Measurement Warm =
      measure([&] { return RecalcAll(/*Naive=*/false, /*Mutate=*/false); });
  double StyleSpeedupCold = Naive.nsPerOp() / Cold.nsPerOp();
  double StyleSpeedupWarm = Naive.nsPerOp() / Warm.nsPerOp();

  TablePrinter Style(
      "Style resolution (400 rules, 160 elements per recalc)");
  Style.row().cell("resolver").cell("ns/element").cell("recalcs/sec");
  Style.row()
      .cell("naive scan (reference)")
      .cell(Naive.nsPerOp(), 1)
      .cell(Naive.opsPerSec(), 0);
  Style.row()
      .cell("indexed, cold (mutation churn)")
      .cell(Cold.nsPerOp(), 1)
      .cell(Cold.opsPerSec(), 0);
  Style.row()
      .cell("indexed, warm (element cache)")
      .cell(Warm.nsPerOp(), 1)
      .cell(Warm.opsPerSec(), 0);
  Style.print();
  std::printf("style-resolution speedup: %.2fx cold, %.2fx warm\n\n",
              StyleSpeedupCold, StyleSpeedupWarm);

  Run.Json.metric("style_naive", Naive.Ops, Naive.nsPerOp(),
                  "recalcs_per_sec", Naive.opsPerSec(), "",
                  Naive.SamplesNsPerOp);
  Run.Json.metric("style_indexed_cold", Cold.Ops, Cold.nsPerOp(),
                  "recalcs_per_sec", Cold.opsPerSec(), "",
                  Cold.SamplesNsPerOp);
  Run.Json.metric("style_indexed_warm", Warm.Ops, Warm.nsPerOp(),
                  "recalcs_per_sec", Warm.opsPerSec(), "",
                  Warm.SamplesNsPerOp);
  Run.Json.scalar("style_speedup_cold", StyleSpeedupCold, "x");
  Run.Json.scalar("style_speedup_warm", StyleSpeedupWarm, "x");

  // --- 3. Warm start ---
  // Single run, cold vs warm: the warm round restores the prebuilt page
  // snapshot (cloned DOM prototype, shared rule index, adopted style
  // cache) instead of parsing; simulated output is byte-identical
  // (tests/workloads/WarmStartTest.cpp pins that), so the delta is pure
  // setup work removed.
  {
    ExperimentConfig RunCfg;
    RunCfg.AppName = "Goo.ne.jp"; // largest page: biggest parse share
    Measurement ColdRun = measure([&] {
      runExperiment(RunCfg);
      return uint64_t(1);
    });
    // Prewarmed, so every timed round restores.
    WarmCache RunPool;
    RunPool.get(RunCfg.AppName, RunCfg.Seed);
    ExperimentConfig WarmCfg = RunCfg;
    WarmCfg.WarmPool = &RunPool;
    Measurement WarmRun = measure([&] {
      runExperiment(WarmCfg);
      return uint64_t(1);
    });
    double WarmSpeedup = WarmRun.nsPerOp() > 0
                             ? ColdRun.nsPerOp() / WarmRun.nsPerOp()
                             : 0;

    TablePrinter Warm("Warm start (restore shared page assets vs cold "
                      "parse)");
    Warm.row().cell("leg").cell("ms/run").cell("speedup");
    Warm.row()
        .cell("cold single run")
        .cell(ColdRun.nsPerOp() / 1e6, 2)
        .cell("1.00x");
    Warm.row()
        .cell("warm single run")
        .cell(WarmRun.nsPerOp() / 1e6, 2)
        .cell(formatString("%.2fx", WarmSpeedup));
    Warm.print();
    std::printf("\n");

    Run.Json.metric("cold_start_run", ColdRun.Ops, ColdRun.nsPerOp(),
                    "runs_per_sec", ColdRun.opsPerSec(), "",
                    ColdRun.SamplesNsPerOp);
    Run.Json.metric("warm_start_run", WarmRun.Ops, WarmRun.nsPerOp(),
                    "runs_per_sec", WarmRun.opsPerSec(), "",
                    WarmRun.SamplesNsPerOp);
    Run.Json.scalar("warm_start_speedup", WarmSpeedup, "x");
  }

  // --- 4. Frame pipeline vs DOM size ---
  {
    TablePrinter Frames("Frame pipeline host cost vs DOM size (rAF loop, "
                        "one inline-style write a frame)");
    Frames.row().cell("filler elements").cell("ns/frame").cell(
        "frames/sec");
    double NsAt100 = 0, NsAt10k = 0;
    for (int Fillers : {100, 1'000, 10'000}) {
      Measurement M = frameHostCost(Fillers);
      Frames.row()
          .cell(formatString("%d", Fillers))
          .cell(M.nsPerOp(), 0)
          .cell(M.opsPerSec(), 0);
      Run.Json.metric(formatString("frame_host_%d", Fillers), M.Ops,
                      M.nsPerOp(), "frames_per_sec", M.opsPerSec(), "",
                      M.SamplesNsPerOp);
      if (Fillers == 100)
        NsAt100 = M.nsPerOp();
      if (Fillers == 10'000)
        NsAt10k = M.nsPerOp();
    }
    Frames.print();
    double Ratio = NsAt100 > 0 ? NsAt10k / NsAt100 : 0;
    std::printf("frame host cost, 10k vs 100 fillers: %.2fx\n\n", Ratio);
    Run.Json.scalar("frame_host_ns_ratio_10k_vs_100", Ratio, "x");
  }

  std::printf("\nJSON written to %s\n", Run.JsonPath.c_str());
  return 0;
}
