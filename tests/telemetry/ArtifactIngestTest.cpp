//===- tests/telemetry/ArtifactIngestTest.cpp - Malformed artifact fields -===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Every artifact loader reads its fields through json::Reader, so a
// present field with the wrong type, a fraction where an integer is
// needed, or a value outside the artifact's limits is refused with a
// diagnostic that names the key, never cast or truncated into a
// plausible value. One table covers the loaders: each row takes a seed
// document that loads (a committed plan or model, or a serialized
// fixture), sets one field to a bad value and expects the refusal.
// Telemetry log lines are read by their kind's schema: a line that
// breaks it is skipped and reported by line number.
//
//===----------------------------------------------------------------------===//

#include "faults/FaultPlan.h"
#include "greenweb/Features.h"
#include "profiling/RunCompare.h"
#include "profiling/RunMeta.h"
#include "telemetry/FleetReport.h"
#include "telemetry/SchedTrace.h"
#include "telemetry/TelemetryLog.h"
#include "workloads/FleetPlan.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>
#include <string>

using namespace greenweb;

namespace {

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::string source(const char *Relative) {
  return std::string(GW_SOURCE_DIR) + "/" + Relative;
}

/// A loader under test: true on success, else false with \p Error set.
using Loader = std::function<bool(const std::string &, std::string &)>;

bool loadPlan(const std::string &Text, std::string &Error) {
  FleetPlan P;
  return FleetPlan::parse(Text, P, &Error);
}

bool loadFaultPlan(const std::string &Text, std::string &Error) {
  return FaultPlan::fromJson(Text, &Error).has_value();
}

bool loadModel(const std::string &Text, std::string &Error) {
  DecisionTreeModel M;
  return DecisionTreeModel::parse(Text, M, &Error);
}

bool loadFeatureTable(const std::string &Text, std::string &Error) {
  FeatureTable T;
  return FeatureTable::parse(Text, T, &Error);
}

bool loadCheckpoint(const std::string &Text, std::string &Error) {
  FleetCheckpoint C;
  return FleetCheckpoint::load(Text, C, &Error);
}

bool loadSched(const std::string &Text, std::string &Error) {
  SchedTrace T;
  return schedTraceFromArtifact(Text, T, &Error);
}

bool loadRunSnapshot(const std::string &Text, std::string &Error) {
  return prof::RunSnapshot::parse(Text, &Error).has_value();
}

/// \p Text with the first numeric value of member \p Key replaced by
/// the JSON text \p Value.
std::string withField(const std::string &Text, const std::string &Key,
                      const std::string &Value) {
  std::regex Member("\"" + Key + "\"\\s*:\\s*-?[0-9][0-9.eE+-]*");
  std::smatch M;
  if (!std::regex_search(Text, M, Member))
    return Text;
  return M.prefix().str() + "\"" + Key + "\":" + Value + M.suffix().str();
}

/// Re-seals an edited checkpoint: a fresh length + checksum footer, so
/// the edited value reaches the field reader instead of the integrity
/// check.
std::string resealed(std::string Text) {
  Text.resize(Text.rfind(",\"payload_length\":"));
  char Footer[96];
  std::snprintf(Footer, sizeof(Footer),
                ",\"payload_length\":%zu,\"checksum\":\"%016llx\"}\n",
                Text.size(),
                static_cast<unsigned long long>(fleetHash(Text)));
  return Text + Footer;
}

std::string checkpointFixture() {
  FleetCheckpoint C;
  C.PlanName = "ingest";
  C.BaselineGovernor = "Perf";
  C.ItemsTotal = 3;
  C.markDone(1);
  return C.serialize();
}

std::string schedFixture() {
  SchedItem I;
  I.Item = 0;
  I.Worker = 1;
  I.Label = "BBC|Perf";
  I.RunNs = 50;
  SchedTrace T = SchedTrace::fromParts(2, 60, 5, {I});
  return schedArtifactJson(T, SchedReport::fromTrace(T));
}

TEST(ArtifactIngestTest, MalformedFieldIsRefusedNamingItsKey) {
  struct Row {
    const char *Artifact;
    Loader Load;
    std::string Seed;
    const char *Key;
    const char *Bad;
    bool Sealed = false; ///< Needs resealed() after the edit.
  };
  const std::string Plan = slurp(source("examples/plans/fleet_smoke.json"));
  const std::string Fault = FaultPlan::scenario("thermal", 7)->toJson();
  const std::string Model = slurp(source("examples/models/predictive.json"));
  const std::string Table =
      slurp(source("examples/models/predictive_fixture.jsonl"));
  const std::string Bench =
      prof::BenchReport("ingest").json(prof::RunMeta::current("ingest"));
  const Row Rows[] = {
      {"plan", loadPlan, Plan, "replicas", "-1"},
      {"plan", loadPlan, Plan, "replicas", "1.5"},
      {"plan", loadPlan, Plan, "replicas", "1e300"},
      {"plan", loadPlan, Plan, "replicas", "\"3\""},
      {"plan", loadPlan, Plan, "micro_repetitions", "-1"},
      {"fault plan", loadFaultPlan, Fault, "seed", "-1"},
      {"fault plan", loadFaultPlan, Fault, "cap_mhz", "-5"},
      {"model", loadModel, Model, "left", "1.5"},
      {"model", loadModel, Model, "count", "-1"},
      {"feature table", loadFeatureTable, Table, "label", "2.5"},
      {"checkpoint", loadCheckpoint, checkpointFixture(), "items_total",
       "-1", true},
      {"sched artifact", loadSched, schedFixture(), "worker", "-1"},
      {"run meta", loadRunSnapshot, Bench, "schema", "1e300"},
  };
  for (const Row &R : Rows) {
    std::string Error;
    ASSERT_TRUE(R.Load(R.Seed, Error)) << R.Artifact << ": " << Error;
    std::string Bad = withField(R.Seed, R.Key, R.Bad);
    ASSERT_NE(Bad, R.Seed) << R.Artifact << " has no numeric " << R.Key;
    if (R.Sealed)
      Bad = resealed(Bad);
    Error.clear();
    EXPECT_FALSE(R.Load(Bad, Error))
        << R.Artifact << " accepted " << R.Key << " = " << R.Bad;
    EXPECT_NE(Error.find(std::string("\"") + R.Key + "\""),
              std::string::npos)
        << R.Artifact << " " << R.Key << " = " << R.Bad << ": " << Error;
  }
}

TEST(ArtifactIngestTest, LogLinesAreReadByTheirKindsSchema) {
  const std::string Good =
      R"({"ts_us":1.000,"kind":"energy_sample","watts":1.5,"joules":0.25,)"
      R"("queue_depth":3})";
  const std::string Item =
      R"({"ts_us":2.000,"kind":"sched","event":"item","item":1,"worker":0,)"
      R"("label":"BBC|Perf","start_ns":0,"run_ns":5,"setup_ns":1,)"
      R"("sim_ns":3,"hook_ns":1,"merge_ns":0,"hub_records":0})";
  struct Row {
    const char *Why;
    std::string Line;
  };
  auto Edit = [](std::string Line, const std::string &From,
                 const std::string &To) {
    size_t At = Line.find(From);
    EXPECT_NE(At, std::string::npos) << From;
    return Line.replace(At, From.size(), To);
  };
  const Row Bad[] = {
      {"missing field", Edit(Good, R"(,"queue_depth":3)", "")},
      {"unknown key", Edit(Good, R"("queue_depth")", R"("depth")")},
      {"extra key", Edit(Good, "}", R"(,"note":"x"})")},
      {"duplicate key", Edit(Good, "}", R"(,"watts":2.0})")},
      {"string for a double", Edit(Good, "1.5", R"("1.5")")},
      {"string for an int", Edit(Good, R"("queue_depth":3)",
                                 R"("queue_depth":"3")")},
      {"fraction for an int", Edit(Good, R"("queue_depth":3)",
                                   R"("queue_depth":3.5)")},
      {"number for a string", Edit(Item, R"("BBC|Perf")", "7")},
      {"unknown sched event", Edit(Item, R"("item","item")",
                                   R"("items","item")")},
      {"missing timestamp", Edit(Good, R"("ts_us":1.000,)", "")},
      {"unknown kind", Edit(Good, "energy_sample", "energy_samples")},
  };
  size_t Skipped = 0;
  TelemetryLog Log = TelemetryLog::fromJsonl(Good + "\n" + Item + "\n",
                                             &Skipped);
  EXPECT_EQ(Skipped, 0u);
  ASSERT_EQ(Log.size(), 2u);
  EXPECT_EQ(Log.records()[0].as<EnergySampleRecord>().QueueDepth, 3);
  EXPECT_EQ(Log.records()[1].as<SchedItemRecord>().Label, "BBC|Perf");
  EXPECT_EQ(Log.toJsonl(), Good + "\n" + Item + "\n");
  for (const Row &R : Bad) {
    // The bad line sits between two good ones and is reported by its
    // 1-based number; the good lines still load.
    std::vector<size_t> SkippedAt;
    Log = TelemetryLog::fromJsonl(Good + "\n" + R.Line + "\n" + Good + "\n",
                                  &Skipped, &SkippedAt);
    EXPECT_EQ(Skipped, 1u) << R.Why << ": " << R.Line;
    EXPECT_EQ(SkippedAt, std::vector<size_t>{2}) << R.Why;
    EXPECT_EQ(Log.size(), 2u) << R.Why;
  }
  // The run-metadata header names no record kind: skipped as line 1.
  std::vector<size_t> SkippedAt;
  Log = TelemetryLog::fromJsonl(
      R"({"kind":"meta","schema":1,"git_commit":"x"})" "\n" + Good + "\n",
      &Skipped, &SkippedAt);
  EXPECT_EQ(SkippedAt, std::vector<size_t>{1});
  EXPECT_EQ(Log.size(), 1u);
}

TEST(ArtifactIngestTest, CommittedArtifactsLoad) {
  namespace fs = std::filesystem;
  std::string Error;
  for (const auto &E : fs::directory_iterator(source("examples/plans")))
    EXPECT_TRUE(loadPlan(slurp(E.path().string()), Error))
        << E.path() << ": " << Error;
  EXPECT_TRUE(loadModel(slurp(source("examples/models/predictive.json")),
                        Error))
      << Error;
  EXPECT_TRUE(loadFeatureTable(
      slurp(source("examples/models/predictive_fixture.jsonl")), Error))
      << Error;
  for (const auto &E : fs::directory_iterator(source("docs/reports"))) {
    if (E.path().extension() != ".json")
      continue;
    EXPECT_TRUE(loadRunSnapshot(slurp(E.path().string()), Error))
        << E.path() << ": " << Error;
  }
}

TEST(ArtifactIngestTest, PlanCrossProductIsBounded) {
  // 1000 apps x 1000 governors x 1000 seeds x 100 scenarios x 10^6
  // replicas is 10^17 items: every field is in range, the product is
  // not.
  auto Repeat = [](const char *Item, int N) {
    std::string List;
    for (int I = 0; I < N; ++I)
      List += std::string(I ? "," : "") + Item;
    return "[" + List + "]";
  };
  std::string Plan = "{\"apps\":" + Repeat("\"BBC\"", 1000) +
                     ",\"governors\":" + Repeat("\"Perf\"", 1000) +
                     ",\"seeds\":" + Repeat("1", 1000) +
                     ",\"scenarios\":" + Repeat("\"none\"", 100) +
                     ",\"replicas\":1000000}";
  std::string Error;
  EXPECT_FALSE(loadPlan(Plan, Error));
  EXPECT_NE(Error.find("more than 2^53 items"), std::string::npos) << Error;
}

} // namespace
