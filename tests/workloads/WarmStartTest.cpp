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

} // namespace
