//===- tests/workloads/WarmStartTest.cpp - warm vs cold determinism -------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The warm-start contract: a run that restores shared page assets
// (PageAssets snapshot) instead of parsing must be *byte-identical* to
// the cold run in everything simulated — energies, frames, event
// metrics, and the full serialized telemetry log — because the warm
// path only skips host-side work. These tests exercise the whole chain:
// WarmCache build-once semantics, the experiment harness eligibility
// rule (AutoGreen runs stay cold), and end-to-end telemetry equality.
// Every warm run gets its assets the one way production does: through
// ExperimentConfig::WarmPool, keyed by (app, seed).
//
//===----------------------------------------------------------------------===//

#include "workloads/Experiment.h"
#include "workloads/ParallelRunner.h"
#include "workloads/WorkloadAssets.h"

#include "browser/Browser.h"
#include "browser/PageSnapshot.h"
#include "hw/AcmpChip.h"
#include "sim/Simulator.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace greenweb;

namespace {

ExperimentConfig baseConfig(const std::string &App) {
  ExperimentConfig C;
  C.AppName = App;
  C.GovernorName = governors::GreenWebI;
  C.Mode = ExperimentMode::Micro;
  C.Seed = 1;
  return C;
}

void expectIdenticalResults(const ExperimentResult &Cold,
                            const ExperimentResult &Warm) {
  EXPECT_EQ(Cold.TotalJoules, Warm.TotalJoules);
  EXPECT_EQ(Cold.BigJoules, Warm.BigJoules);
  EXPECT_EQ(Cold.LittleJoules, Warm.LittleJoules);
  EXPECT_EQ(Cold.MeasuredSeconds, Warm.MeasuredSeconds);
  EXPECT_EQ(Cold.InputEvents, Warm.InputEvents);
  EXPECT_EQ(Cold.AnnotatedEvents, Warm.AnnotatedEvents);
  EXPECT_EQ(Cold.Frames, Warm.Frames);
  EXPECT_EQ(Cold.ViolationPctImperceptible,
            Warm.ViolationPctImperceptible);
  EXPECT_EQ(Cold.ViolationPctUsable, Warm.ViolationPctUsable);
  EXPECT_EQ(Cold.FreqSwitches, Warm.FreqSwitches);
  EXPECT_EQ(Cold.Migrations, Warm.Migrations);
  EXPECT_EQ(Cold.AnnotationPct, Warm.AnnotationPct);
  ASSERT_EQ(Cold.Events.size(), Warm.Events.size());
  for (size_t I = 0; I < Cold.Events.size(); ++I) {
    EXPECT_EQ(Cold.Events[I].RootId, Warm.Events[I].RootId);
    EXPECT_EQ(Cold.Events[I].Type, Warm.Events[I].Type);
    ASSERT_EQ(Cold.Events[I].FrameLatencies.size(),
              Warm.Events[I].FrameLatencies.size());
    for (size_t F = 0; F < Cold.Events[I].FrameLatencies.size(); ++F)
      EXPECT_EQ(Cold.Events[I].FrameLatencies[F].nanos(),
                Warm.Events[I].FrameLatencies[F].nanos());
  }
  EXPECT_TRUE(Warm.ScriptErrors.empty());
}

TEST(WarmStartTest, WarmRunTelemetryIsByteIdenticalToCold) {
  for (const char *App : {"CamanJS", "Todo"}) {
    ExperimentConfig Cold = baseConfig(App);
    Telemetry ColdTel;
    Cold.Tel = &ColdTel;
    Cold.MeterSamplePeriod = Duration::milliseconds(1);
    ExperimentResult ColdR = runExperiment(Cold);

    WarmCache Pool;
    ASSERT_TRUE(Pool.get(App, Cold.Seed).Snapshot.Proto);
    ExperimentConfig Warm = baseConfig(App);
    Telemetry WarmTel;
    Warm.Tel = &WarmTel;
    Warm.MeterSamplePeriod = Duration::milliseconds(1);
    Warm.WarmPool = &Pool;
    ExperimentResult WarmR = runExperiment(Warm);

    expectIdenticalResults(ColdR, WarmR);
    // The serialized telemetry stream — every span, sample, metric —
    // must not change by a byte.
    EXPECT_EQ(ColdTel.log().toJsonl(), WarmTel.log().toJsonl());
    EXPECT_EQ(ColdTel.metrics().snapshotJson(),
              WarmTel.metrics().snapshotJson());
    EXPECT_GT(WarmTel.log().size(), 0u);
  }
}

TEST(WarmStartTest, FullModeWarmRunMatchesCold) {
  ExperimentConfig Cold = baseConfig("CamanJS");
  Cold.Mode = ExperimentMode::Full;
  ExperimentResult ColdR = runExperiment(Cold);

  WarmCache Pool;
  Pool.get(Cold.AppName, Cold.Seed); // prewarmed: the run restores
  ExperimentConfig Warm = Cold;
  Warm.WarmPool = &Pool;
  expectIdenticalResults(ColdR, runExperiment(Warm));
}

TEST(WarmStartTest, AutoGreenRunsIgnoreWarmAssets) {
  // AutoGreen rewrites the page source, so warm assets (captured from
  // the unrewritten page) must be bypassed.
  ExperimentConfig Cold = baseConfig("CamanJS");
  Cold.UseAutoGreenAnnotations = true;
  ExperimentResult ColdR = runExperiment(Cold);

  WarmCache Pool;
  ExperimentConfig Warm = Cold;
  Warm.WarmPool = &Pool;
  expectIdenticalResults(ColdR, runExperiment(Warm));
}

TEST(WarmStartTest, WarmCacheBuildsEachKeyOnceAndIsThreadSafe) {
  WarmCache Cache;
  const PageAssets *First = nullptr;
  std::vector<std::thread> Threads;
  std::vector<const PageAssets *> Seen(8, nullptr);
  for (size_t T = 0; T < Seen.size(); ++T)
    Threads.emplace_back(
        [&Cache, &Seen, T] { Seen[T] = &Cache.get("Todo", 1); });
  for (std::thread &T : Threads)
    T.join();
  First = Seen[0];
  ASSERT_TRUE(First);
  for (const PageAssets *P : Seen)
    EXPECT_EQ(P, First); // one shared instance, built once
  EXPECT_TRUE(First->Snapshot.Proto);
  EXPECT_EQ(First->AppName, "Todo");
  EXPECT_EQ(First->Seed, 1u);
  // A different key is a different entry.
  EXPECT_NE(&Cache.get("Todo", 2), First);
}

TEST(WarmStartTest, WarmPoolMatchesColdAcrossMedianSeeds) {
  ExperimentConfig C = baseConfig("Todo");
  ExperimentResult ColdR = runExperimentMedian(C, {1, 2, 3});

  WarmCache Pool;
  ExperimentConfig Warm = C;
  Warm.WarmPool = &Pool;
  ExperimentResult WarmR = runExperimentMedian(Warm, {1, 2, 3});
  expectIdenticalResults(ColdR, WarmR);
}

TEST(WarmStartTest, ParallelSweepWithWarmCacheMatchesColdSweep) {
  std::vector<ExperimentConfig> Configs;
  for (const char *App : {"CamanJS", "Todo"})
    for (const char *Gov : {governors::Perf, governors::GreenWebI}) {
      ExperimentConfig C = baseConfig(App);
      C.GovernorName = Gov;
      Configs.push_back(std::move(C));
    }

  Telemetry ColdTel;
  ParallelExperimentOptions ColdOpts;
  ColdOpts.Jobs = 2;
  ColdOpts.SharedTel = &ColdTel;
  ColdOpts.JobLogCapacity = 4096;
  std::vector<ExperimentResult> ColdR =
      runExperimentsParallel(Configs, ColdOpts);

  WarmCache Cache;
  std::vector<ExperimentConfig> WarmConfigs = Configs;
  for (ExperimentConfig &C : WarmConfigs)
    C.WarmPool = &Cache;
  Telemetry WarmTel;
  ParallelExperimentOptions WarmOpts = ColdOpts;
  WarmOpts.SharedTel = &WarmTel;
  std::vector<ExperimentResult> WarmR =
      runExperimentsParallel(WarmConfigs, WarmOpts);

  ASSERT_EQ(ColdR.size(), WarmR.size());
  for (size_t I = 0; I < ColdR.size(); ++I)
    expectIdenticalResults(ColdR[I], WarmR[I]);
  EXPECT_EQ(ColdTel.log().toJsonl(), WarmTel.log().toJsonl());
  EXPECT_EQ(ColdTel.metrics().snapshotJson(),
            WarmTel.metrics().snapshotJson());
}

/// A page whose scripts fail every way a page script can: an inline
/// handler and a <script> that do not parse, and a handler and a
/// <script> that throw when they run.
constexpr const char *FaultyPage = R"(<html><body>
<div id="ok" onclick="performWork(5); count = count + 1;">ok</div>
<div id="unparsable" onclick="var = ;">unparsable</div>
<div id="throws" onclick="missingFunction(count);">throws</div>
<div id="both" onclick="count = count + 1;" ontouchstart="(((;">both</div>
<script>var count = 0;</script>
<script>function broken( { return 1; }</script>
<script>var after = missingGlobal + 1;</script>
<script>count = count + 10;</script>
</body></html>)";

struct PageRun {
  std::vector<std::string> ScriptErrors;
  std::string Jsonl;
  std::string Metrics;
};

/// Loads the faulty page cold (\p Snapshot null) or restored from
/// \p Snapshot, then clicks every element, one after another.
PageRun runFaultyPage(const PageSnapshot *Snapshot) {
  Telemetry Tel;
  Simulator Sim;
  Sim.setTelemetry(&Tel);
  AcmpChip Chip(Sim);
  Browser B(Sim, Chip);
  uint64_t Root = Snapshot ? B.loadPage(*Snapshot) : B.loadPage(FaultyPage);
  EXPECT_NE(Root, 0u);
  Sim.runUntil(Sim.now() + Duration::seconds(1));
  for (const char *Id : {"ok", "unparsable", "throws", "both", "ok"}) {
    B.dispatchInput("click", Id);
    Sim.runUntil(Sim.now() + Duration::milliseconds(200));
  }
  B.dispatchInput("touchstart", "both");
  Sim.runUntil(Sim.now() + Duration::milliseconds(200));
  return {B.ScriptErrors, Tel.log().toJsonl(), Tel.metrics().snapshotJson()};
}

void expectSameRun(const PageRun &Cold, const PageRun &Other) {
  EXPECT_EQ(Cold.ScriptErrors, Other.ScriptErrors);
  EXPECT_EQ(Cold.Jsonl, Other.Jsonl);
  EXPECT_EQ(Cold.Metrics, Other.Metrics);
}

TEST(WarmStartTest, ScriptErrorsMatchAcrossColdWarmAndParallelRestores) {
  const PageRun Cold = runFaultyPage(nullptr);
  // Two parse errors while binding handlers (document order), then one
  // per failing <script> at load, then one per throwing dispatch.
  ASSERT_EQ(Cold.ScriptErrors.size(), 5u);
  EXPECT_EQ(Cold.ScriptErrors[0].rfind("parse error: ", 0), 0u);
  EXPECT_EQ(Cold.ScriptErrors[1].rfind("parse error: ", 0), 0u);
  EXPECT_EQ(Cold.ScriptErrors[2].rfind("parse error: ", 0), 0u);
  EXPECT_NE(Cold.ScriptErrors[3].find("missingGlobal"), std::string::npos)
      << Cold.ScriptErrors[3];
  EXPECT_NE(Cold.ScriptErrors[4].find("missingFunction"), std::string::npos)
      << Cold.ScriptErrors[4];
  EXPECT_GT(Cold.Jsonl.size(), 0u);

  // The snapshot compiles each script and handler once; restores reuse
  // those programs and their compile-error texts.
  const PageSnapshot Snapshot = capturePageSnapshot(FaultyPage);
  ASSERT_TRUE(Snapshot.Proto);
  ASSERT_TRUE(Snapshot.Scripts);
  EXPECT_EQ(Snapshot.Scripts->Scripts.size(), 4u);
  EXPECT_EQ(Snapshot.Scripts->Handlers.size(), 5u);
  expectSameRun(Cold, runFaultyPage(&Snapshot));

  // Four workers restore the same snapshot at once and run its shared
  // programs (the sanitizer build checks they share them race-free).
  std::vector<PageRun> Runs(8);
  ParallelRunner(4).forEachIndex(
      Runs.size(), [&](size_t I) { Runs[I] = runFaultyPage(&Snapshot); });
  for (const PageRun &Run : Runs)
    expectSameRun(Cold, Run);
}

} // namespace
