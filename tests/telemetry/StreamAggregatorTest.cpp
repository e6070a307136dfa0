//===- tests/telemetry/StreamAggregatorTest.cpp - fleet folding tests -----===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/StreamAggregator.h"

#include "support/Json.h"

#include <gtest/gtest.h>

using namespace greenweb;

namespace {

RunSample sample(const char *App, const char *Gov, double Joules,
                 double ViolationPct, uint64_t Frames, uint64_t Violations,
                 uint64_t Alerts) {
  RunSample S;
  S.App = App;
  S.Governor = Gov;
  S.Joules = Joules;
  S.ViolationPct = ViolationPct;
  S.Frames = Frames;
  S.QosViolations = Violations;
  S.Alerts = Alerts;
  return S;
}

std::vector<RunSample> fleet() {
  return {
      sample("Cnet", "GreenWeb-I", 4.2, 3.0, 600, 18, 1),
      sample("Cnet", "Interactive", 9.1, 1.0, 620, 6, 0),
      sample("Amazon", "GreenWeb-I", 3.1, 7.5, 400, 30, 2),
      sample("Amazon", "GreenWeb-U", 2.8, 12.0, 410, 49, 3),
      sample("Cnet", "GreenWeb-I", 4.4, 2.5, 590, 15, 0),
  };
}

} // namespace

TEST(StreamAggregatorTest, FoldsRunsIntoGroups) {
  StreamAggregator A;
  for (const RunSample &S : fleet())
    A.addRun(S);
  EXPECT_EQ(A.runs(), 5u);
  EXPECT_EQ(A.alerts(), 6u);

  auto Doc = json::parse(A.toJson());
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->stringOr("kind", ""), "fleet_summary");
  const json::Value *Overall = Doc->get("overall");
  ASSERT_NE(Overall, nullptr);
  json::Reader O(*Overall, "overall");
  EXPECT_EQ(O.count("runs", 0), 5u);
  EXPECT_EQ(O.count("frames", 0), 2620u);
  EXPECT_EQ(O.count("qos_violations", 0), 118u);
  EXPECT_NEAR(O.number("joules_total", 0), 23.6, 1e-6);

  const json::Value *ByApp = Doc->get("by_app");
  ASSERT_NE(ByApp, nullptr);
  const json::Value *Cnet = ByApp->get("Cnet");
  ASSERT_NE(Cnet, nullptr);
  EXPECT_EQ(json::Reader(*Cnet, "Cnet").count("runs", 0), 3u);
  const json::Value *ByGov = Doc->get("by_governor");
  ASSERT_NE(ByGov, nullptr);
  const json::Value *Gwi = ByGov->get("GreenWeb-I");
  ASSERT_NE(Gwi, nullptr);
  json::Reader G(*Gwi, "GreenWeb-I");
  EXPECT_EQ(G.count("runs", 0), 3u);
  EXPECT_EQ(G.count("alerts", 0), 3u);

  // Histogram summaries surface per-group distributions.
  const json::Value *Energy = Overall->get("energy_j");
  ASSERT_NE(Energy, nullptr);
  json::Reader E(*Energy, "energy_j");
  EXPECT_EQ(E.count("count", 0), 5u);
  EXPECT_NEAR(E.number("min", 0), 2.8, 1e-6);
  EXPECT_NEAR(E.number("max", 0), 9.1, 1e-6);
}

TEST(StreamAggregatorTest, EmptyAggregatorStillSerializes) {
  StreamAggregator A;
  EXPECT_EQ(A.runs(), 0u);
  auto Doc = json::parse(A.toJson());
  ASSERT_TRUE(Doc.has_value());
  const json::Value *Overall = Doc->get("overall");
  ASSERT_NE(Overall, nullptr);
  EXPECT_EQ(json::Reader(*Overall, "overall").count("runs", 1), 0u);
  const json::Value *Energy = Overall->get("energy_j");
  ASSERT_NE(Energy, nullptr);
  json::Reader E(*Energy, "energy_j");
  EXPECT_EQ(E.count("count", 1), 0u);
  EXPECT_EQ(E.number("p50", -1), 0.0);
}

TEST(StreamAggregatorTest, ShardMergeMatchesSequentialFold) {
  std::vector<RunSample> Runs = fleet();

  StreamAggregator Sequential;
  for (const RunSample &S : Runs)
    Sequential.addRun(S);

  // Two shards folding disjoint prefix/suffix, then merged.
  StreamAggregator ShardA, ShardB;
  for (size_t I = 0; I < Runs.size(); ++I)
    (I < 2 ? ShardA : ShardB).addRun(Runs[I]);
  StreamAggregator Merged;
  Merged.mergeFrom(ShardA);
  Merged.mergeFrom(ShardB);

  EXPECT_EQ(Merged.runs(), Sequential.runs());
  EXPECT_EQ(Merged.toJson(), Sequential.toJson());
}

TEST(StreamAggregatorTest, MergeIsAssociative) {
  std::vector<RunSample> Runs = fleet();
  auto Shard = [&](size_t Begin, size_t End) {
    StreamAggregator A;
    for (size_t I = Begin; I < End && I < Runs.size(); ++I)
      A.addRun(Runs[I]);
    return A;
  };
  StreamAggregator A = Shard(0, 2), B = Shard(2, 4), C = Shard(4, 5);

  StreamAggregator Left; // (A + B) + C
  Left.mergeFrom(A);
  Left.mergeFrom(B);
  Left.mergeFrom(C);
  StreamAggregator Bc; // A + (B + C)
  Bc.mergeFrom(B);
  Bc.mergeFrom(C);
  StreamAggregator Right;
  Right.mergeFrom(A);
  Right.mergeFrom(Bc);

  EXPECT_EQ(Left.toJson(), Right.toJson());
}

TEST(StreamAggregatorTest, JsonIsDeterministicAndNameOrdered) {
  auto Build = [] {
    StreamAggregator A;
    // Insertion order deliberately differs from name order.
    A.addRun(sample("Zillow", "Powersave", 1.0, 0.0, 100, 0, 0));
    A.addRun(sample("Amazon", "GreenWeb-I", 2.0, 1.0, 200, 2, 1));
    return A.toJson();
  };
  std::string Json = Build();
  EXPECT_EQ(Json, Build());
  // by_app lists Amazon before Zillow regardless of insertion order.
  EXPECT_LT(Json.find("\"Amazon\""), Json.find("\"Zillow\""));
}

TEST(StreamAggregatorTest, BlankNamesGroupUnderPlaceholder) {
  StreamAggregator A;
  A.addRun(sample("", "", 1.0, 0.0, 10, 0, 0));
  auto Doc = json::parse(A.toJson());
  ASSERT_TRUE(Doc.has_value());
  const json::Value *ByApp = Doc->get("by_app");
  ASSERT_NE(ByApp, nullptr);
  EXPECT_NE(ByApp->get("?"), nullptr);
}
