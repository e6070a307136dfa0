//===- tests/telemetry/ArtifactGoldenTest.cpp - Artifact byte goldens -----===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Pins the exact bytes of every JSON artifact serializer outside the
// telemetry exports (those are ExportGoldenTest's): fault and fleet
// plans, fleet checkpoints and reports, scheduler reports and traces,
// the learned model and feature table lines, run metadata and the
// gw-diff JSON report. Each input is fixed, so each output's FNV-1a
// digest and byte size must equal the recorded golden on any build of
// the same sources.
//
// A failure means a serializer changed its bytes. If the change is
// deliberate, document it and re-record the golden from the failure
// message.
//
//===----------------------------------------------------------------------===//

#include "browser/TraceExport.h"
#include "faults/FaultPlan.h"
#include "greenweb/Features.h"
#include "greenweb/Governors.h"
#include "profiling/Profiler.h"
#include "profiling/RunCompare.h"
#include "profiling/RunMeta.h"
#include "telemetry/FleetReport.h"
#include "telemetry/SchedTrace.h"
#include "telemetry/Telemetry.h"
#include "workloads/FleetRunner.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace greenweb;

namespace {

struct Golden {
  const char *Name;
  size_t Bytes;
  uint64_t Fnv;
};

void expectGolden(const std::string &Text, const Golden &G) {
  uint64_t Fnv = fleetHash(Text);
  char Actual[96];
  std::snprintf(Actual, sizeof(Actual), "{\"%s\", %zu, 0x%016" PRIx64 "ull}",
                G.Name, Text.size(), Fnv);
  EXPECT_EQ(Text.size(), G.Bytes) << "actual " << Actual;
  EXPECT_EQ(Fnv, G.Fnv) << "actual " << Actual;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::string sourcePath(const char *Rel) {
  return std::string(GW_SOURCE_DIR) + "/" + Rel;
}

SchedItem schedItem(uint64_t Item, unsigned Worker, const char *Label,
                    int64_t Start, int64_t Run) {
  SchedItem I;
  I.Item = Item;
  I.Worker = Worker;
  I.Label = Label;
  I.StartNs = Start;
  I.RunNs = Run;
  I.SetupNs = Run / 10;
  I.SimNs = Run - Run / 5;
  I.HookNs = Run / 20;
  I.MergeNs = 7 * int64_t(Item);
  I.HubRecords = 3 * int64_t(Item) + 1;
  return I;
}

/// Two workers, an unlabeled item, a label that needs escaping, handout
/// gaps (wait slices) and a merge window.
SchedTrace fixedSchedTrace() {
  return SchedTrace::fromParts(
      /*Workers=*/2, /*BatchNs=*/250000, /*MergeWindowNs=*/12345,
      {schedItem(0, 0, "BBC|Perf", 1000, 90000),
       schedItem(1, 1, "q\"uo\\te", 0, 120500),
       schedItem(2, 0, "", 95000, 60001),
       schedItem(3, 1, "Todo|GreenWeb-I", 130000, 80000)});
}

/// A profile with two thread tracks and nested spans, as collect()
/// would return it.
prof::Profile fixedProfile() {
  prof::Profile P;
  P.ThreadLabels = {"main", "worker \"1\""};
  P.Spans = {{"sim.run", 1000, 501000, 0, 0},
             {"sim.run;sim.event", 2500, 9333, 1, 0},
             {"browser;css\\match", 40000, 41999, 1, 1}};
  return P;
}

/// The trace writeTelemetryArtifacts writes: the simulated-time events,
/// then the host-time profile tracks, then the scheduler tracks.
std::string assembleTrace(const std::vector<FrameRecord> &Frames,
                          const std::vector<ConfigInterval> &Cpu,
                          const Telemetry &Tel, const prof::Profile &Prof,
                          const SchedTrace &Sched) {
  return exportChromeTrace(Frames, Cpu, Tel, &Prof, &Sched);
}

TEST(ArtifactGoldenTest, FaultPlans) {
  expectGolden(FaultPlan::chaosPlan(7).toJson(),
               {"chaos7", 251, 0x245a15d35f98930aull});
  expectGolden(FaultPlan::chaosPlan(20260101).toJson(),
               {"chaos20260101", 267, 0x11edf3b699c64b01ull});
  expectGolden(FaultPlan::scenario("mixed", 3)->toJson(),
               {"mixed3", 396, 0x7a646e25613a57ffull});
}

TEST(ArtifactGoldenTest, FleetSmokePlan) {
  FleetPlan Plan;
  std::string Error;
  ASSERT_TRUE(FleetPlan::parse(slurp(sourcePath("examples/plans/"
                                                "fleet_smoke.json")),
                               Plan, &Error))
      << Error;
  expectGolden(Plan.toJson(), {"fleet_smoke", 279, 0x20297de0c3dc320dull});
  Plan.ModelPath = "examples/models/predictive.json";
  Plan.Name = "with \"model\"";
  expectGolden(Plan.toJson(), {"fleet_smoke_model", 330, 0xadb4c05913b3d5daull});
}

TEST(ArtifactGoldenTest, FleetCheckpointAndReport) {
  FleetPlan Plan;
  Plan.Name = "golden";
  Plan.Mode = ExperimentMode::Micro;
  Plan.Apps = {"BBC", "Todo"};
  Plan.Governors = {governors::Perf, governors::GreenWebI};
  Plan.Seeds = {1};
  Plan.Scenarios = {"none", "chaos"};
  Plan.Replicas = 1;
  Plan.MicroRepetitions = 2;
  Plan.BaselineGovernor = governors::Perf;

  std::string Ckpt = testing::TempDir() + "gw_artifact_golden.ckpt";
  std::remove(Ckpt.c_str());
  FleetRunOptions Opts;
  Opts.Jobs = 2;
  Opts.BatchSize = 3;
  Opts.CheckpointPath = Ckpt;
  FleetRunSummary Summary;
  std::string Error;
  ASSERT_TRUE(runFleet(Plan, Opts, Summary, &Error)) << Error;
  ASSERT_TRUE(Summary.Complete);
  expectGolden(Summary.Report.toJson(), {"fleet_report", 3415, 0x1eb6ec0721151683ull});
  expectGolden(slurp(Ckpt), {"fleet_checkpoint", 9827, 0x57541e7374a48108ull});
}

TEST(ArtifactGoldenTest, SchedReportAndArtifact) {
  SchedTrace Trace = fixedSchedTrace();
  SchedReport Report = SchedReport::fromTrace(Trace);
  expectGolden(Report.toJson(), {"sched_report", 736, 0x3d8ba633eb9f86dfull});
  expectGolden(schedArtifactJson(Trace, Report), {"sched_artifact", 1467, 0x80caa1fc31ebaf12ull});
}

TEST(ArtifactGoldenTest, TraceWithHostAndSchedTracks) {
  FrameTracker Tracker;
  TimePoint T0 = TimePoint::origin() + Duration::milliseconds(10);
  FrameMsg Msg = Tracker.makeMsg(T0, 0, "cl\"ick");
  FrameRecord Frame = Tracker.finishFrame(
      3, T0, T0 + Duration::fromMillis(16.7), {Msg}, 2.5e6,
      Duration::milliseconds(1));
  std::vector<ConfigInterval> Cpu = {
      {{CoreKind::Little, 350}, TimePoint::origin(), T0},
      {{CoreKind::Big, 1800}, T0, T0 + Duration::milliseconds(20)}};
  Telemetry Tel;
  Tel.recordEnergySample({0.75, 1.5, 4});
  Tel.recordCounterSample("probe \\ \"x\"", 2.5);
  expectGolden(assembleTrace({Frame}, Cpu, Tel, fixedProfile(),
                             fixedSchedTrace()),
               {"trace_full", 3185, 0x4dfd287534bc822dull});
  expectGolden(assembleTrace({Frame}, Cpu, Tel, prof::Profile(),
                             fixedSchedTrace()),
               {"trace_sched_only", 2579, 0xfc71a50b6e392f4bull});
}

TEST(ArtifactGoldenTest, TraceOnMetricsOnlyHub) {
  // No simulated-time events: the host tracks open the event array.
  Telemetry Tel;
  Tel.setLogCapacity(0);
  Tel.recordEnergySample({0.75, 1.5, 4});
  expectGolden(assembleTrace({}, {}, Tel, fixedProfile(), fixedSchedTrace()),
               {"trace_empty_base", 2078, 0x4936d0a487fa76a5ull});
  expectGolden(assembleTrace({}, {}, Tel, prof::Profile(), fixedSchedTrace()),
               {"trace_empty_base_sched", 1472, 0xf9fe323efb83d893ull});
  expectGolden(assembleTrace({}, {}, Tel, prof::Profile(), SchedTrace()),
               {"trace_empty", 3, 0x8a8fc050dc78239full});
}

TEST(ArtifactGoldenTest, ModelRoundTripsToTheCommittedFile) {
  std::string File = slurp(sourcePath("examples/models/predictive.json"));
  DecisionTreeModel Model;
  std::string Error;
  ASSERT_TRUE(DecisionTreeModel::parse(File, Model, &Error)) << Error;
  EXPECT_EQ(Model.toJson() + "\n", File);
  expectGolden(Model.toJson(), {"model", 7439, 0x475d99e3104e46c8ull});
}

TEST(ArtifactGoldenTest, FeatureTableLines) {
  FeatureRow Row;
  for (size_t I = 0; I < kNumFeatures; ++I)
    Row.F[I] = double(I) / 3.0 - 1.0;
  Row.Label = 11;
  std::string Lines = featureHeaderLine(17) + "\n" +
                      featureRowLine(Row, "Goo.ne.jp", "Pre\"dictive", 42) +
                      "\n";
  expectGolden(Lines, {"features", 475, 0x3f3e158905157475ull});
}

TEST(ArtifactGoldenTest, RunMeta) {
  prof::RunMeta M;
  M.GitCommit = "abc1234";
  M.BuildType = "Release";
  M.Compiler = "GNU 12.2.0";
  M.HardwareThreads = 8;
  M.Flags = "gw-fleet --plan=\"a b\\c\"";
  std::string Bare = M.toJsonObject() + "\n" + M.toJsonlLine() + "\n";
  M.Governor = "GreenWeb-I";
  expectGolden(Bare + M.toJsonObject() + "\n" + M.toJsonlLine() + "\n",
               {"run_meta", 640, 0x5bd007c748c7f3c5ull});
}

TEST(ArtifactGoldenTest, CompareReport) {
  prof::CompareResult R;
  prof::MetricDelta A;
  A.Name = "pass_ms";
  A.Base = 10.25;
  A.Cand = 12.5;
  A.DeltaPct = 21.951219512195124;
  A.V = prof::Verdict::Regressed;
  A.HasStats = true;
  A.PValue = 0.0123;
  A.CiLoPct = 15.5;
  A.CiHiPct = 28.25;
  prof::MetricDelta B;
  B.Name = "op \"p50\"";
  B.Base = 3.0;
  B.Cand = 2.9;
  B.DeltaPct = -3.3333333333333335;
  R.Deltas = {A, B};
  R.Regressed = 1;
  R.Unchanged = 1;
  R.MetaWarnings = {"compiler differs", "host \\ differs"};
  prof::CompareOptions Opts;
  std::string Ok = prof::compareReportJson(R, Opts);
  R.MetaError = "schema mismatch";
  expectGolden(Ok + prof::compareReportJson(R, Opts), {"compare", 983, 0xdf0b8e7483a038d1ull});
}

} // namespace
