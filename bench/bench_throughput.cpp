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
//   3. Scenario throughput: the full_evaluation sweep wall-clock with
//      --jobs=1 vs --jobs=N through ParallelRunner.
//   4. Warm start: a repeat experiment run restoring shared page assets
//      from a prewarmed WarmCache (snapshot clone + shared rule index +
//      adopted style cache) vs a cold parse-everything run, plus a
//      whole sweep with and without the warm-asset cache and its
//      setup-phase attribution.
//   5. Frame pipeline vs DOM size: host ns per requestAnimationFrame
//      frame on pages with 100 / 1,000 / 10,000 filler elements. The
//      style and layout stages price every node, so they must read the
//      node count without walking the tree; the 10k/100 ratio is gated.
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
#include "telemetry/SchedTrace.h"
#include "workloads/Experiment.h"
#include "workloads/ParallelRunner.h"
#include "workloads/WorkloadAssets.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

using namespace greenweb;
using reference::ReferenceEventQueue;

namespace {

//===----------------------------------------------------------------------===//
// Self-timed measurement loop
//===----------------------------------------------------------------------===//

struct Measurement {
  uint64_t Ops = 0;
  double Seconds = 0.0;
  std::vector<double> SamplesNsPerOp; ///< Per-round ns/op, for gw-diff.
  double nsPerOp() const { return Ops ? Seconds / double(Ops) * 1e9 : 0; }
  double opsPerSec() const { return Seconds > 0 ? double(Ops) / Seconds : 0; }
};

/// Repeats \p Round (which returns the ops it performed) until at least
/// \p MinSeconds of wall clock accumulate, timing each round separately
/// so the JSON output can carry raw samples for significance testing.
Measurement measure(const std::function<uint64_t()> &Round,
                    double MinSeconds = 0.25) {
  Measurement M;
  auto Start = std::chrono::steady_clock::now();
  do {
    auto RoundStart = std::chrono::steady_clock::now();
    uint64_t Ops = Round();
    auto RoundEnd = std::chrono::steady_clock::now();
    M.Ops += Ops;
    if (Ops)
      M.SamplesNsPerOp.push_back(
          std::chrono::duration<double>(RoundEnd - RoundStart).count() /
          double(Ops) * 1e9);
    M.Seconds =
        std::chrono::duration<double>(RoundEnd - Start).count();
  } while (M.Seconds < MinSeconds);
  return M;
}

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
  bench::BenchFlags Flags = bench::BenchFlags::parse(Argc, Argv);
  bench::ProfSession ProfGuard(Flags);
  if (Flags.JsonPath.empty())
    Flags.JsonPath = "BENCH_throughput.json";
  bench::JsonReporter Json("bench_throughput", Flags.JsonPath);
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

  Json.metric("event_kernel_reference_heap", Heap.Ops, Heap.nsPerOp(),
              "events_per_sec", Heap.opsPerSec(), "", Heap.SamplesNsPerOp);
  Json.metric("event_kernel_calendar", Calendar.Ops, Calendar.nsPerOp(),
              "events_per_sec", Calendar.opsPerSec(), "",
              Calendar.SamplesNsPerOp);
  Json.scalar("event_kernel_calendar_speedup", CalendarSpeedup, "x");

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
  Json.metric("event_churn_scattered_reference_heap", ScatHeap.Ops,
              ScatHeap.nsPerOp(), "events_per_sec", ScatHeap.opsPerSec(),
              "", ScatHeap.SamplesNsPerOp);
  Json.metric("event_churn_scattered_calendar", ScatCal.Ops,
              ScatCal.nsPerOp(), "events_per_sec", ScatCal.opsPerSec(),
              "", ScatCal.SamplesNsPerOp);
  Json.scalar("event_churn_scattered_speedup", ScatSpeedup, "x");

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

  Json.metric("style_naive", Naive.Ops, Naive.nsPerOp(),
              "recalcs_per_sec", Naive.opsPerSec(), "",
              Naive.SamplesNsPerOp);
  Json.metric("style_indexed_cold", Cold.Ops, Cold.nsPerOp(),
              "recalcs_per_sec", Cold.opsPerSec(), "",
              Cold.SamplesNsPerOp);
  Json.metric("style_indexed_warm", Warm.Ops, Warm.nsPerOp(),
              "recalcs_per_sec", Warm.opsPerSec(), "",
              Warm.SamplesNsPerOp);
  Json.scalar("style_speedup_cold", StyleSpeedupCold, "x");
  Json.scalar("style_speedup_warm", StyleSpeedupWarm, "x");

  // --- 3. Parallel scenario sweep ---
  std::vector<ExperimentConfig> Configs;
  for (const char *App : {"CamanJS", "Todo", "Goo.ne.jp"})
    for (const char *Gov :
         {governors::Perf, governors::Interactive, governors::GreenWebI,
          governors::GreenWebU}) {
      ExperimentConfig C;
      C.AppName = App;
      C.GovernorName = Gov;
      Configs.push_back(std::move(C));
    }
  auto SweepSecs = [&](unsigned Jobs, SchedTrace *Sched = nullptr,
                       WarmCache *Warm = nullptr) {
    std::vector<ExperimentConfig> Runs = Configs;
    for (ExperimentConfig &C : Runs)
      C.WarmPool = Warm;
    // A metrics-only shared hub, as every real sweep runs (bench
    // prefetch, chaos soak): the post-batch config-order merge is part
    // of what the scheduler report attributes.
    Telemetry Tel;
    Tel.setLogCapacity(0);
    ParallelExperimentOptions Opts;
    Opts.Jobs = Jobs;
    Opts.SharedTel = &Tel;
    Opts.JobLogCapacity = 0;
    Opts.Sched = Sched;
    SchedProgress Progress;
    if (Flags.Progress && Jobs > 1) {
      Opts.Progress = &Progress;
      Opts.ProgressLabel = formatString("sweep jobs=%u", Jobs);
    }
    auto Start = std::chrono::steady_clock::now();
    runExperimentsParallel(Runs, Opts);
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - Start)
        .count();
  };
  // Default the parallel leg to hardware concurrency (clamped), but
  // never below 2: even a single-core host should exercise the
  // ParallelRunner's threaded path rather than silently degenerate to a
  // second serial run. --jobs=N overrides (0 = hardware).
  unsigned HwThreads = ParallelRunner(0).jobs();
  unsigned SweepJobs = Flags.JobsSet
                           ? ParallelRunner(Flags.Jobs).jobs()
                           : std::max(2u, std::min(HwThreads, 16u));
  double Serial = SweepSecs(1);
  // The parallel leg runs with the scheduler trace attached (its
  // overhead on a metrics-only sweep is <2%; see bench_telemetry), so
  // the efficiency attribution describes the timed run itself.
  SchedTrace Sched;
  double Parallel = SweepSecs(SweepJobs, &Sched);
  double SweepSpeedup = Parallel > 0 ? Serial / Parallel : 0;
  SchedReport Report = SchedReport::fromTrace(Sched);

  TablePrinter Sweep("Scenario sweep (12 simulations)");
  Sweep.row().cell("jobs").cell("wall seconds");
  Sweep.row().cell("1").cell(Serial, 3);
  Sweep.row().cell(formatString("%u", SweepJobs)).cell(Parallel, 3);
  Sweep.print();
  std::printf("sweep speedup: %.2fx with %u jobs (%u hardware threads "
              "on this host)\n\n",
              SweepSpeedup, SweepJobs, HwThreads);
  // Bench-meta honesty: a single-core host still runs the parallel leg
  // with >= 2 jobs (see SweepJobs above), so the "speedup" there
  // measures oversubscription cost, not scaling. Record jobs-vs-cores
  // in the artifact and annotate the affected scalars so readers and
  // CI gates interpret a sub-1x value for what it is.
  bool Oversubscribed = SweepJobs > HwThreads;
  std::string SweepNote =
      Oversubscribed ? formatString(
                           "oversubscribed: %u jobs on %u hardware "
                           "threads; measures scheduling cost, not scaling",
                           SweepJobs, HwThreads)
                     : "";
  if (Oversubscribed)
    std::printf("note: sweep leg is oversubscribed (%u jobs on %u "
                "hardware threads); a speedup below 1x here is "
                "context-switch overhead, not a scaling regression\n\n",
                SweepJobs, HwThreads);
  std::printf("%s", Report.format().c_str());

  Json.scalar("sweep_serial_seconds", Serial, "s");
  Json.scalar("sweep_parallel_seconds", Parallel, "s", {}, SweepNote);
  Json.scalar("sweep_jobs", double(SweepJobs));
  Json.scalar("sweep_hardware_threads", double(HwThreads));
  Json.scalar("jobs_vs_cores",
              HwThreads ? double(SweepJobs) / double(HwThreads) : 0.0,
              "x", {}, SweepNote);
  Json.scalar("sweep_speedup", SweepSpeedup, "x", {}, SweepNote);
  Json.scalar("sweep_efficiency", Report.Efficiency, "", {}, SweepNote);
  Json.scalar("sweep_imbalance_fraction", Report.ImbalanceFraction);
  Json.scalar("sweep_overhead_fraction", Report.OverheadFraction);
  Json.scalar("sweep_merge_fraction", Report.MergeFraction);
  for (const SchedReport::Worker &W : Report.PerWorker)
    Json.scalar(formatString("sweep_worker_%u_utilization", W.Id),
                W.Utilization);

  // --- 4. Warm start ---
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

    // Whole sweep with the shared warm cache, modeling the repeat-sweep
    // loop (tuning sessions, median seeds, chaos soaks re-running the
    // same matrix): assets for every (app, seed) already exist from the
    // previous pass, so every run restores. Both legs are re-timed
    // best-of-3 — a 12-sim sweep is ~10 ms of wall and single shots are
    // at this host's noise floor. The scheduler traces' setup phase
    // shows where the time went.
    WarmCache Cache;
    for (const ExperimentConfig &C : Configs)
      Cache.get(C.AppName, C.Seed);
    // Each leg: best-of-3 wall clock, setup fraction aggregated over
    // all three traces (36 items) — single traces inherit too much
    // host-scheduling noise on a busy runner.
    auto SweepLeg = [&](WarmCache *Warm, double &SetupFrac) {
      double Best = 0;
      int64_t Setup = 0, Total = 0;
      for (int Rep = 0; Rep < 3; ++Rep) {
        SchedTrace Trace;
        double Secs = SweepSecs(SweepJobs, &Trace, Warm);
        Best = Rep == 0 ? Secs : std::min(Best, Secs);
        for (const SchedItem &I : Trace.items()) {
          Setup += I.SetupNs;
          Total += I.RunNs;
        }
      }
      SetupFrac = Total > 0 ? double(Setup) / double(Total) : 0.0;
      return Best;
    };
    double ColdSetupFrac = 0, WarmSetupFrac = 0;
    double ColdSweep = SweepLeg(nullptr, ColdSetupFrac);
    double WarmSweep = SweepLeg(&Cache, WarmSetupFrac);
    double SweepWarmSpeedup = WarmSweep > 0 ? ColdSweep / WarmSweep : 0;

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
    Warm.row()
        .cell("cold sweep (12 sims)")
        .cell(ColdSweep * 1e3, 1)
        .cell("1.00x");
    Warm.row()
        .cell("warm sweep (12 sims)")
        .cell(WarmSweep * 1e3, 1)
        .cell(formatString("%.2fx", SweepWarmSpeedup));
    Warm.print();
    std::printf("setup-phase share of worker time: %.1f%% cold -> "
                "%.1f%% warm\n\n",
                ColdSetupFrac * 100.0, WarmSetupFrac * 100.0);

    Json.metric("cold_start_run", ColdRun.Ops, ColdRun.nsPerOp(),
                "runs_per_sec", ColdRun.opsPerSec(), "",
                ColdRun.SamplesNsPerOp);
    Json.metric("warm_start_run", WarmRun.Ops, WarmRun.nsPerOp(),
                "runs_per_sec", WarmRun.opsPerSec(), "",
                WarmRun.SamplesNsPerOp);
    Json.scalar("warm_start_speedup", WarmSpeedup, "x");
    Json.scalar("sweep_cold_seconds", ColdSweep, "s");
    Json.scalar("sweep_warm_seconds", WarmSweep, "s");
    Json.scalar("sweep_warm_speedup", SweepWarmSpeedup, "x");
    Json.scalar("sweep_cold_setup_fraction", ColdSetupFrac);
    Json.scalar("sweep_warm_setup_fraction", WarmSetupFrac);
  }

  // --- 5. Frame pipeline vs DOM size ---
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
      Json.metric(formatString("frame_host_%d", Fillers), M.Ops,
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
    Json.scalar("frame_host_ns_ratio_10k_vs_100", Ratio, "x");
  }

  if (!Flags.SchedPath.empty()) {
    std::ofstream Out(Flags.SchedPath);
    if (Out) {
      Out << schedArtifactJson(Sched, Report);
      std::printf("wrote scheduler trace to %s\n",
                  Flags.SchedPath.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n",
                   Flags.SchedPath.c_str());
    }
  }

  std::printf("\nJSON written to %s\n", Flags.JsonPath.c_str());
  return 0;
}
