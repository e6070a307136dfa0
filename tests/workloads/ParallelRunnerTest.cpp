//===- tests/workloads/ParallelRunnerTest.cpp - parallel fan-out tests ----===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// The runner's contract is determinism: a parallel sweep must produce
// the same results AND the same aggregated telemetry as the serial run
// of the same configs, byte for byte. These tests pin that down with
// jobs=4 vs jobs=1 comparisons on real experiments.
//
//===----------------------------------------------------------------------===//

#include "workloads/ParallelRunner.h"

#include "support/Json.h"
#include "telemetry/SchedTrace.h"
#include "telemetry/StreamAggregator.h"
#include "telemetry/Telemetry.h"
#include "workloads/Experiment.h"
#include "workloads/TelemetryArtifacts.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace greenweb;

namespace {

TEST(ParallelRunnerTest, ZeroJobsSelectsAtLeastOneWorker) {
  ParallelRunner Runner(0);
  EXPECT_GE(Runner.jobs(), 1u);
}

TEST(ParallelRunnerTest, ForEachIndexVisitsEveryIndexExactlyOnce) {
  ParallelRunner Runner(4);
  constexpr size_t Count = 200;
  std::vector<std::atomic<int>> Hits(Count);
  Runner.forEachIndex(Count, [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I < Count; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ParallelRunnerTest, SingleJobRunsInlineInOrder) {
  ParallelRunner Runner(1);
  std::vector<size_t> Order;
  Runner.forEachIndex(10, [&](size_t I) { Order.push_back(I); });
  ASSERT_EQ(Order.size(), 10u);
  for (size_t I = 0; I < Order.size(); ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(ParallelRunnerTest, EmptyCountIsANoOp) {
  ParallelRunner Runner(4);
  bool Called = false;
  Runner.forEachIndex(0, [&](size_t) { Called = true; });
  EXPECT_FALSE(Called);
}

TEST(ParallelRunnerTest, ForEachIndexWorkerReportsDenseIdsInRange) {
  ParallelRunner Runner(4);
  constexpr size_t Count = 64;
  std::vector<std::atomic<int>> Hits(Count);
  std::atomic<unsigned> MaxWorker{0};
  Runner.forEachIndexWorker(Count, [&](unsigned Worker, size_t I) {
    Hits[I].fetch_add(1);
    unsigned Cur = MaxWorker.load();
    while (Worker > Cur && !MaxWorker.compare_exchange_weak(Cur, Worker))
      ;
  });
  for (size_t I = 0; I < Count; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
  EXPECT_LT(MaxWorker.load(), 4u);
}

TEST(ParallelRunnerTest, ForEachIndexWorkerSingleJobIsAllCallerThread) {
  ParallelRunner Runner(1);
  std::vector<unsigned> WorkerIds;
  Runner.forEachIndexWorker(
      8, [&](unsigned Worker, size_t) { WorkerIds.push_back(Worker); });
  ASSERT_EQ(WorkerIds.size(), 8u);
  for (unsigned W : WorkerIds)
    EXPECT_EQ(W, 0u);
}

TEST(ParallelRunnerTest, ThrowingItemRethrowsFirstExceptionOnCaller) {
  ParallelRunner Runner(4);
  std::atomic<int> Ran{0};
  std::atomic<bool> Thrown{false};
  // Items are handed out in index order, so every item after 7 is
  // claimed once 7 is. Holding them until item 7 has thrown, plus a
  // grace period for the runner to record the failure, keeps the other
  // workers from draining the batch while item 7's worker is
  // descheduled. Both waits are bounded so a broken runner fails
  // rather than hangs.
  auto WaitFor7 = [&] {
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!Thrown.load() && std::chrono::steady_clock::now() < Deadline)
      std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  EXPECT_THROW(
      Runner.forEachIndexWorker(200,
                                [&](unsigned, size_t I) {
                                  Ran.fetch_add(1);
                                  if (I == 7) {
                                    Thrown.store(true);
                                    throw std::runtime_error("item 7");
                                  }
                                  if (I > 7)
                                    WaitFor7();
                                }),
      std::runtime_error);
  // The failure stops further handout: some items ran, not all 200
  // (each in-flight worker may finish its current item first).
  EXPECT_GE(Ran.load(), 1);
  EXPECT_LT(Ran.load(), 200);
}

TEST(ParallelRunnerTest, ThrowingItemUnderSingleJobStillPropagates) {
  ParallelRunner Runner(1);
  EXPECT_THROW(Runner.forEachIndexWorker(
                   4,
                   [](unsigned, size_t I) {
                     if (I == 2)
                       throw std::logic_error("inline");
                   }),
               std::logic_error);
}

std::vector<ExperimentConfig> sweepConfigs() {
  std::vector<ExperimentConfig> Configs;
  for (const char *App : {"CamanJS", "Todo"})
    for (const char *Gov : {governors::Perf, governors::GreenWebI}) {
      ExperimentConfig C;
      C.AppName = App;
      C.GovernorName = Gov;
      C.Mode = ExperimentMode::Micro;
      Configs.push_back(std::move(C));
    }
  return Configs;
}

void expectSameResults(const std::vector<ExperimentResult> &A,
                       const std::vector<ExperimentResult> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].App, B[I].App);
    EXPECT_EQ(A[I].Governor, B[I].Governor);
    EXPECT_DOUBLE_EQ(A[I].TotalJoules, B[I].TotalJoules);
    EXPECT_DOUBLE_EQ(A[I].MeasuredSeconds, B[I].MeasuredSeconds);
    EXPECT_EQ(A[I].Frames, B[I].Frames);
    EXPECT_EQ(A[I].FreqSwitches, B[I].FreqSwitches);
  }
}

TEST(ParallelRunnerTest, ParallelResultsMatchSerialInConfigOrder) {
  std::vector<ExperimentConfig> Configs = sweepConfigs();
  ParallelExperimentOptions Serial;
  Serial.Jobs = 1;
  ParallelExperimentOptions Parallel;
  Parallel.Jobs = 4;
  expectSameResults(runExperimentsParallel(Configs, Serial),
                    runExperimentsParallel(Configs, Parallel));
}

TEST(ParallelRunnerTest, MergedTelemetryIsByteIdenticalToSerial) {
  std::vector<ExperimentConfig> Configs = sweepConfigs();

  Telemetry SerialTel;
  ParallelExperimentOptions Serial;
  Serial.Jobs = 1;
  Serial.SharedTel = &SerialTel;
  Serial.JobLogCapacity = 4096;
  runExperimentsParallel(Configs, Serial);

  Telemetry ParallelTel;
  ParallelExperimentOptions Parallel;
  Parallel.Jobs = 4;
  Parallel.SharedTel = &ParallelTel;
  Parallel.JobLogCapacity = 4096;
  runExperimentsParallel(Configs, Parallel);

  // Metric aggregates merge in config index order, so the snapshot
  // (volatile host-time metrics excluded) is byte-identical.
  EXPECT_EQ(SerialTel.metrics().snapshotJson(),
            ParallelTel.metrics().snapshotJson());
  // Log records re-append in config index order, so the serialized log
  // is byte-identical too.
  EXPECT_EQ(SerialTel.log().toJsonl(), ParallelTel.log().toJsonl());
  EXPECT_GT(ParallelTel.log().size(), 0u);
}

TEST(ParallelRunnerTest, MergedAlertStreamIsByteIdenticalToSerial) {
  std::vector<ExperimentConfig> Configs = sweepConfigs();

  auto AlertJsonl = [](const TelemetryLog &Log) {
    std::string Out;
    for (const TelemetryRecord *R : Log.byKind(TelemetryEventKind::Alert))
      Out += telemetryRecordJson(*R) + "\n";
    return Out;
  };

  Telemetry SerialTel;
  ParallelExperimentOptions Serial;
  Serial.Jobs = 1;
  Serial.SharedTel = &SerialTel;
  Serial.EnableDetectors = true;
  // Metrics-only per-run hubs: alerts bypass the capacity cap, so the
  // merged stream is still complete.
  Serial.JobLogCapacity = 0;
  runExperimentsParallel(Configs, Serial);

  Telemetry ParallelTel;
  ParallelExperimentOptions Parallel;
  Parallel.Jobs = 4;
  Parallel.SharedTel = &ParallelTel;
  Parallel.EnableDetectors = true;
  Parallel.JobLogCapacity = 0;
  runExperimentsParallel(Configs, Parallel);

  EXPECT_EQ(AlertJsonl(SerialTel.log()), AlertJsonl(ParallelTel.log()));
  // The alert counters merged identically too.
  EXPECT_EQ(SerialTel.metrics().snapshotJson(),
            ParallelTel.metrics().snapshotJson());
}

TEST(ParallelRunnerTest, PerJobHookFoldsDeterministicallyWithoutSharedHub) {
  std::vector<ExperimentConfig> Configs = sweepConfigs();

  // The fleet's shape: no shared hub, so nothing merges, but a hook
  // still gets each run's private hub (here with detectors armed) and
  // the caller folds the harvested samples in config order.
  auto Fold = [&Configs](unsigned Jobs) {
    std::vector<RunSample> Samples(Configs.size());
    ParallelExperimentOptions Opts;
    Opts.Jobs = Jobs;
    Opts.EnableDetectors = true;
    Opts.JobLogCapacity = 0;
    Opts.PerJobHook = [&Samples](size_t I, const ExperimentResult &R,
                                 Telemetry &Hub) {
      Samples[I] = makeRunSample(R, &Hub);
    };
    runExperimentsParallel(Configs, Opts);
    StreamAggregator Agg;
    for (const RunSample &S : Samples)
      Agg.addRun(S);
    return Agg;
  };
  StreamAggregator SerialAgg = Fold(1);
  StreamAggregator ParallelAgg = Fold(4);

  EXPECT_EQ(SerialAgg.runs(), Configs.size());
  // Runs fold in config index order either way, so the streaming
  // fleet summary is byte-identical.
  EXPECT_EQ(SerialAgg.toJson(), ParallelAgg.toJson());
}

TEST(ParallelRunnerTest, PerJobHookSeesEveryRunOnItsPrivateHub) {
  std::vector<ExperimentConfig> Configs = sweepConfigs();
  Telemetry Tel;
  ParallelExperimentOptions Opts;
  Opts.Jobs = 4;
  Opts.SharedTel = &Tel;
  std::mutex Mu;
  std::vector<size_t> Seen;
  Opts.PerJobHook = [&](size_t I, const ExperimentResult &R, Telemetry &T) {
    T.metrics().counter("test.hook_runs").add();
    EXPECT_FALSE(R.App.empty());
    std::lock_guard<std::mutex> Lock(Mu);
    Seen.push_back(I);
  };
  runExperimentsParallel(Configs, Opts);
  EXPECT_EQ(Seen.size(), Configs.size());
  // Hook-written metrics merge into the shared hub like any other.
  EXPECT_EQ(Tel.metrics().counter("test.hook_runs").value(),
            double(Configs.size()));
}

TEST(ParallelRunnerTest, SchedTraceRecordsEveryItemExactlyOnce) {
  std::vector<ExperimentConfig> Configs = sweepConfigs();
  Telemetry Tel;
  Tel.setLogCapacity(0);
  SchedTrace Sched;
  ParallelExperimentOptions Opts;
  Opts.Jobs = 3;
  Opts.SharedTel = &Tel;
  Opts.JobLogCapacity = 0;
  Opts.Sched = &Sched;
  runExperimentsParallel(Configs, Opts);

  ASSERT_TRUE(Sched.active());
  EXPECT_EQ(Sched.workers(), 3u);
  std::vector<SchedItem> Items = Sched.items();
  ASSERT_EQ(Items.size(), Configs.size());
  for (size_t I = 0; I < Items.size(); ++I) {
    EXPECT_EQ(Items[I].Item, I);
    EXPECT_LT(Items[I].Worker, 3u);
    // Default labels come from the config.
    EXPECT_EQ(Items[I].Label,
              Configs[I].AppName + "|" + Configs[I].GovernorName);
    EXPECT_GT(Items[I].RunNs, 0);
    EXPECT_GE(Items[I].SimNs, 0);
  }
  SchedReport Report = SchedReport::fromTrace(Sched);
  EXPECT_EQ(Report.Items, Configs.size());
  uint64_t PerWorkerSum = 0;
  for (const SchedReport::Worker &W : Report.PerWorker)
    PerWorkerSum += W.Items;
  EXPECT_EQ(PerWorkerSum, Configs.size());
  EXPECT_GT(Report.MakespanNs, 0);
}

TEST(ParallelRunnerTest, SchedTraceSingleJobIsDeterministicAssignment) {
  std::vector<ExperimentConfig> Configs = sweepConfigs();
  SchedTrace Sched;
  ParallelExperimentOptions Opts;
  Opts.Jobs = 1;
  Opts.Sched = &Sched;
  runExperimentsParallel(Configs, Opts);

  // Inline execution: one worker, every item on it, in config order.
  EXPECT_EQ(Sched.workers(), 1u);
  std::vector<SchedItem> Items = Sched.items();
  ASSERT_EQ(Items.size(), Configs.size());
  for (const SchedItem &I : Items)
    EXPECT_EQ(I.Worker, 0u);
}

TEST(ParallelRunnerTest, SchedTraceClampsWorkersToItemCount) {
  std::vector<ExperimentConfig> Configs = sweepConfigs();
  Configs.resize(2);
  SchedTrace Sched;
  ParallelExperimentOptions Opts;
  Opts.Jobs = 8;
  Opts.Sched = &Sched;
  runExperimentsParallel(Configs, Opts);
  // Only as many workers as items exist; ids stay dense.
  EXPECT_EQ(Sched.workers(), 2u);
  EXPECT_EQ(Sched.items().size(), 2u);
}

TEST(ParallelRunnerTest, SchedTelemetryRecordsLandInSharedHub) {
  std::vector<ExperimentConfig> Configs = sweepConfigs();
  Telemetry Tel;
  SchedTrace Sched;
  ParallelExperimentOptions Opts;
  Opts.Jobs = 2;
  Opts.SharedTel = &Tel;
  Opts.JobLogCapacity = 0;
  Opts.Sched = &Sched;
  runExperimentsParallel(Configs, Opts);

  // One "item" record per config plus one "batch" summary.
  std::vector<const TelemetryRecord *> SchedRecords =
      Tel.log().byKind(TelemetryEventKind::Sched);
  ASSERT_EQ(SchedRecords.size(), Configs.size() + 1);
  size_t Batches = 0;
  for (const TelemetryRecord *R : SchedRecords)
    Batches += R->get<SchedBatchRecord>() != nullptr;
  EXPECT_EQ(Batches, 1u);
}

TEST(ParallelRunnerTest, MergePreservesAlertBypassOnCappedSharedHub) {
  std::vector<ExperimentConfig> Configs = sweepConfigs();

  // A deterministic per-run stream: one alert plus one bulk record,
  // stamped with virtual time so serial and parallel runs serialize
  // byte-identically.
  auto Hook = [](size_t I, const ExperimentResult &, Telemetry &T) {
    TimePoint Ts = TimePoint::origin() + Duration::milliseconds(int64_t(I));
    T.log().append(Ts, AlertRecord{"test", 0.0, 0.0, 0.0, 0, int64_t(I)});
    T.log().append(Ts, CounterSampleRecord{"bulk", double(I)});
  };
  auto AlertJsonl = [](const TelemetryLog &Log) {
    std::string Out;
    for (const TelemetryRecord *R : Log.byKind(TelemetryEventKind::Alert))
      Out += telemetryRecordJson(*R) + "\n";
    return Out;
  };

  // Reference: an uncapped serial sweep's alert stream.
  Telemetry SerialTel;
  ParallelExperimentOptions Serial;
  Serial.Jobs = 1;
  Serial.SharedTel = &SerialTel;
  Serial.JobLogCapacity = 0;
  Serial.PerJobHook = Hook;
  runExperimentsParallel(Configs, Serial);
  std::string Reference = AlertJsonl(SerialTel.log());
  ASSERT_FALSE(Reference.empty());

  // Regression: a capacity-0 shared hub fed from private logs must
  // drop the bulk records (counting them) yet keep every alert — the
  // same bypass a live hub applies on append.
  Telemetry CappedTel;
  CappedTel.setLogCapacity(0);
  ParallelExperimentOptions Capped;
  Capped.Jobs = 4;
  Capped.SharedTel = &CappedTel;
  Capped.JobLogCapacity = 0;
  Capped.PerJobHook = Hook;
  runExperimentsParallel(Configs, Capped);

  EXPECT_EQ(AlertJsonl(CappedTel.log()), Reference);
  // Everything in the capped log is an alert; the rest was dropped and
  // counted.
  EXPECT_EQ(CappedTel.log().size(),
            CappedTel.log().byKind(TelemetryEventKind::Alert).size());
  EXPECT_GT(
      CappedTel.metrics().counter("telemetry.dropped_records").value(),
      0.0);
}

TEST(ParallelRunnerTest, SchedTracksSpliceValidJsonIntoEmptyTrace) {
  // A metrics-only shared hub (log capacity 0) exports an empty
  // Chrome-trace event array. The ",\n"-prefixed sched worker tracks
  // must still splice into valid JSON instead of landing right after
  // the opening '[' as "[,".
  Telemetry Tel;
  Tel.setLogCapacity(0);
  SchedTrace Sched = SchedTrace::fromParts(
      2, 100, 20,
      {{0, 0, "a", 10, 40, 5, 30, 2, 8, 3},
       {1, 1, "b", 0, 90, 1, 85, 0, 12, 5}});

  TelemetryArtifactOptions Artifacts;
  Artifacts.TracePath =
      ::testing::TempDir() + "gw_sched_empty_trace.json";
  writeTelemetryArtifacts(Artifacts, Tel, {}, {}, &Sched);

  std::ifstream In(Artifacts.TracePath);
  ASSERT_TRUE(In.good());
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Error;
  std::optional<json::Value> Doc = json::parse(Buf.str(), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  ASSERT_TRUE(Doc->isArray());
  EXPECT_FALSE(Doc->Arr.empty());
  std::remove(Artifacts.TracePath.c_str());
}

TEST(ParallelRunnerTest, MedianSeedsRunThroughTheMedianProtocol) {
  std::vector<ExperimentConfig> Configs = sweepConfigs();
  Configs.resize(1);
  ParallelExperimentOptions Opts;
  Opts.Jobs = 2;
  Opts.MedianSeeds = {1, 2, 3};
  std::vector<ExperimentResult> Par = runExperimentsParallel(Configs, Opts);
  ASSERT_EQ(Par.size(), 1u);
  ExperimentResult Ref = runExperimentMedian(Configs[0], {1, 2, 3});
  EXPECT_DOUBLE_EQ(Par[0].TotalJoules, Ref.TotalJoules);
  EXPECT_EQ(Par[0].Seed, Ref.Seed);
}

} // namespace
