//===- tests/workloads/FleetRunnerTest.cpp - fleet run tests --------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/FleetRunner.h"

#include "support/Json.h"
#include "telemetry/TelemetryLog.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace greenweb;

namespace {

FleetPlan smallPlan() {
  FleetPlan Plan;
  Plan.Name = "unit";
  Plan.Mode = ExperimentMode::Micro;
  Plan.Apps = {"BBC", "Todo"};
  Plan.Governors = {governors::Perf, governors::GreenWebI};
  Plan.Seeds = {1};
  Plan.Scenarios = {"none", "thermal"};
  Plan.Replicas = 2;
  Plan.MicroRepetitions = 2;
  Plan.BaselineGovernor = governors::Perf;
  return Plan;
}

std::string tempPath(const char *Name) {
  return testing::TempDir() + "gw_fleet_" + Name;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

TEST(FleetPlanTest, ExpansionDecodesEveryDimension) {
  FleetPlan Plan = smallPlan();
  EXPECT_EQ(Plan.items(), 2u * 2 * 1 * 2 * 2);
  // App-major nesting: the last dimension (replica) varies fastest.
  FleetPlanItem First = Plan.item(0);
  EXPECT_EQ(First.App, "BBC");
  EXPECT_EQ(First.Governor, governors::Perf);
  EXPECT_EQ(First.Scenario, "none");
  EXPECT_EQ(First.Replica, 0u);
  FleetPlanItem Second = Plan.item(1);
  EXPECT_EQ(Second.Replica, 1u);
  EXPECT_EQ(Second.Scenario, "none");
  FleetPlanItem Last = Plan.item(Plan.items() - 1);
  EXPECT_EQ(Last.App, "Todo");
  EXPECT_EQ(Last.Governor, governors::GreenWebI);
  EXPECT_EQ(Last.Scenario, "thermal");
  EXPECT_EQ(Last.Replica, 1u);

  // Replicas share the page seed but diverge in the fault seed.
  EXPECT_EQ(First.warmKey(), Second.warmKey());
  EXPECT_NE(First.faultSeed(), Second.faultSeed());
}

TEST(FleetPlanTest, ParseValidatesNames) {
  FleetPlan Plan;
  std::string Error;
  EXPECT_FALSE(FleetPlan::parse(
      R"({"apps":["NoSuchApp"],"governors":["Perf"],"seeds":[1]})", Plan,
      &Error));
  EXPECT_NE(Error.find("unknown app"), std::string::npos) << Error;
  EXPECT_FALSE(FleetPlan::parse(
      R"({"apps":["BBC"],"governors":["Turbo"],"seeds":[1]})", Plan,
      &Error));
  EXPECT_NE(Error.find("unknown governor"), std::string::npos) << Error;
  EXPECT_FALSE(FleetPlan::parse(
      R"({"apps":["BBC"],"governors":["Perf"],"seeds":[1],)"
      R"("scenarios":["gremlins"]})",
      Plan, &Error));
  EXPECT_NE(Error.find("unknown fault scenario"), std::string::npos)
      << Error;
  EXPECT_TRUE(FleetPlan::parse(
      R"({"apps":["BBC"],"governors":["Perf","GreenWeb-I"],"seeds":[1],)"
      R"("scenarios":["none","chaos"],"replicas":2})",
      Plan, &Error))
      << Error;
  EXPECT_EQ(Plan.BaselineGovernor, governors::Perf);
  EXPECT_EQ(Plan.items(), 8u);
}

TEST(FleetPlanTest, CanonicalJsonHashIsStable) {
  FleetPlan A = smallPlan();
  FleetPlan B = smallPlan();
  EXPECT_EQ(A.toJson(), B.toJson());
  EXPECT_EQ(A.hash(), B.hash());
  B.Seeds = {2};
  EXPECT_NE(A.hash(), B.hash());
}

TEST(FleetRunnerTest, KillAndResumeIsByteIdentical) {
  FleetPlan Plan = smallPlan();
  std::string PathA = tempPath("straight.ckpt");
  std::string PathB = tempPath("resumed.ckpt");
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());

  FleetRunOptions Base;
  Base.Jobs = 2;
  Base.BatchSize = 3; // Uneven batches exercise the tail shard.
  std::string Error;

  // Uninterrupted run.
  FleetRunOptions OptsA = Base;
  OptsA.CheckpointPath = PathA;
  FleetRunSummary A;
  ASSERT_TRUE(runFleet(Plan, OptsA, A, &Error)) << Error;
  ASSERT_TRUE(A.Complete);
  EXPECT_EQ(A.ItemsRun, Plan.items());

  // "Killed" after two batches, then resumed to completion.
  FleetRunOptions OptsB = Base;
  OptsB.CheckpointPath = PathB;
  OptsB.MaxBatches = 2;
  FleetRunSummary B1;
  ASSERT_TRUE(runFleet(Plan, OptsB, B1, &Error)) << Error;
  EXPECT_FALSE(B1.Complete);
  EXPECT_EQ(B1.ItemsRun, 6u);
  OptsB.MaxBatches = 0;
  OptsB.Resume = true;
  FleetRunSummary B2;
  ASSERT_TRUE(runFleet(Plan, OptsB, B2, &Error)) << Error;
  ASSERT_TRUE(B2.Complete);
  EXPECT_EQ(B2.ItemsSkipped, 6u);
  EXPECT_EQ(B2.ItemsRun, Plan.items() - 6u);

  // The whole durable artifact — folded state, bitmap, embedded report
  // — is byte-identical, and so is the derived report document.
  EXPECT_EQ(slurp(PathA), slurp(PathB));
  EXPECT_EQ(A.Report.toJson(), B2.Report.toJson());
  EXPECT_EQ(A.Report.format(), B2.Report.format());
}

TEST(FleetRunnerTest, ResumeRejectsCorruptAndForeignCheckpoints) {
  FleetPlan Plan = smallPlan();
  std::string Path = tempPath("corrupt.ckpt");

  FleetRunOptions Opts;
  Opts.Jobs = 1;
  Opts.BatchSize = 4;
  Opts.CheckpointPath = Path;
  Opts.MaxBatches = 1;
  FleetRunSummary S;
  std::string Error;
  ASSERT_TRUE(runFleet(Plan, Opts, S, &Error)) << Error;

  // Truncate the checkpoint mid-document: load must refuse.
  std::string Text = slurp(Path);
  ASSERT_FALSE(Text.empty());
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Text.substr(0, Text.size() - 20);
  }
  Opts.Resume = true;
  Opts.MaxBatches = 0;
  EXPECT_FALSE(runFleet(Plan, Opts, S, &Error));
  EXPECT_FALSE(Error.empty());

  // Flip one byte (same length): the checksum must catch it.
  {
    std::string Flipped = Text;
    size_t Pos = Flipped.find("\"plan_name\":\"unit\"");
    ASSERT_NE(Pos, std::string::npos);
    Flipped[Pos + 13] = 'U';
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Flipped;
  }
  EXPECT_FALSE(runFleet(Plan, Opts, S, &Error));
  EXPECT_NE(Error.find("corrupt"), std::string::npos) << Error;

  // A checkpoint from a different plan is refused by hash.
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Text;
  }
  FleetPlan Other = Plan;
  Other.Seeds = {5};
  EXPECT_FALSE(runFleet(Other, Opts, S, &Error));
  EXPECT_NE(Error.find("different plan"), std::string::npos) << Error;

  // And resuming a missing file is an error, not a silent fresh start.
  std::remove(Path.c_str());
  EXPECT_FALSE(runFleet(Plan, Opts, S, &Error));
  EXPECT_NE(Error.find("cannot read"), std::string::npos) << Error;
}

TEST(FleetRunnerTest, ControlCharactersRoundTripThroughEveryArtifact) {
  const std::string Name = "smo\nke\t1\x01";
  FleetPlan Plan = smallPlan();
  Plan.Name = Name;
  Plan.Scenarios = {"none"};
  Plan.Replicas = 1;

  // The plan itself: escaped text, parsed back to the same name and
  // the same canonical bytes.
  std::string PlanJson = Plan.toJson();
  EXPECT_NE(PlanJson.find("smo\\nke\\t1\\u0001"), std::string::npos)
      << PlanJson;
  FleetPlan Back;
  std::string Error;
  ASSERT_TRUE(FleetPlan::parse(PlanJson, Back, &Error)) << Error;
  EXPECT_EQ(Back.Name, Name);
  EXPECT_EQ(Back.toJson(), PlanJson);

  // The fleet report and checkpoint hold no raw control byte and parse
  // back to the name.
  std::string Path = tempPath("control.ckpt");
  std::remove(Path.c_str());
  FleetRunOptions Opts;
  Opts.Jobs = 1;
  Opts.CheckpointPath = Path;
  FleetRunSummary S;
  ASSERT_TRUE(runFleet(Plan, Opts, S, &Error)) << Error;
  for (const std::string &Doc : {S.Report.toJson(), slurp(Path)}) {
    for (char C : Doc)
      EXPECT_TRUE(static_cast<unsigned char>(C) >= 0x20 || C == '\n');
    std::optional<json::Value> V = json::parse(Doc, &Error);
    ASSERT_TRUE(V) << Error;
    EXPECT_EQ(V->stringOr(V->get("plan") ? "plan" : "plan_name", ""), Name);
  }

  // A telemetry log line: escaped on export, decoded on import.
  TelemetryLog Log;
  Log.append(TelemetryEventKind::Fault, TimePoint::origin(),
             {{"plan", Name}, {"ctl\x1f", std::string("\b\f\r\\\"")}});
  std::string Jsonl = Log.toJsonl();
  ASSERT_TRUE(json::parse(Jsonl, &Error)) << Error;
  size_t Skipped = 0;
  TelemetryLog Parsed = TelemetryLog::fromJsonl(Jsonl, &Skipped);
  EXPECT_EQ(Skipped, 0u);
  ASSERT_EQ(Parsed.records().size(), 1u);
  EXPECT_EQ(Parsed.records()[0].stringOr("plan", ""), Name);
  EXPECT_EQ(Parsed.records()[0].stringOr("ctl\x1f", ""), "\b\f\r\\\"");
  EXPECT_EQ(Parsed.toJsonl(), Jsonl);
}

TEST(FleetRunnerTest, WarmPoolHitRateReflectsPlanStructure) {
  FleetPlan Plan = smallPlan();
  FleetRunOptions Opts;
  Opts.Jobs = 1;
  Opts.BatchSize = 16;
  FleetRunSummary S;
  std::string Error;
  ASSERT_TRUE(runFleet(Plan, Opts, S, &Error)) << Error;
  // 2 apps x 1 seed = 2 distinct warm keys over 16 runs.
  EXPECT_EQ(S.Report.State.WarmKeys.size(), 2u);
  EXPECT_EQ(S.Report.State.Agg.runs(), Plan.items());
}

TEST(FleetRunnerTest, MissingOrMalformedModelStopsBeforeAnyBatch) {
  FleetPlan Plan = smallPlan();
  Plan.Governors = {governors::Perf, governors::PredictiveI};
  FleetRunOptions Opts;
  Opts.Jobs = 1;
  Opts.CheckpointPath = tempPath("model.ckpt");
  std::remove(Opts.CheckpointPath.c_str());
  FleetRunSummary S;
  std::string Error;

  // Every Predictive-I item used to fall back to the GreenWeb-I runtime
  // and the fleet finished with exit 0; now the run refuses up front.
  Plan.ModelPath = tempPath("no-such-model.json");
  std::remove(Plan.ModelPath.c_str());
  EXPECT_FALSE(runFleet(Plan, Opts, S, &Error));
  EXPECT_NE(Error.find(Plan.ModelPath), std::string::npos) << Error;
  EXPECT_EQ(S.ItemsRun, 0u);
  EXPECT_FALSE(std::ifstream(Opts.CheckpointPath).good());

  Plan.ModelPath = tempPath("malformed-model.json");
  std::ofstream(Plan.ModelPath) << "{\"kind\":\"gw_train_model\"";
  Error.clear();
  EXPECT_FALSE(runFleet(Plan, Opts, S, &Error));
  EXPECT_NE(Error.find(Plan.ModelPath), std::string::npos) << Error;
  EXPECT_FALSE(std::ifstream(Opts.CheckpointPath).good());
  std::remove(Plan.ModelPath.c_str());
}

} // namespace
