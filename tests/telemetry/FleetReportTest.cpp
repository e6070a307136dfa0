//===- tests/telemetry/FleetReportTest.cpp - checkpoint/report tests ------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/FleetReport.h"

#include "support/Json.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace greenweb;

namespace {

RunSample sample(const char *App, const char *Gov, double Joules,
                 double ViolationPct, uint64_t Frames) {
  RunSample S;
  S.App = App;
  S.Governor = Gov;
  S.Joules = Joules;
  S.ViolationPct = ViolationPct;
  S.Frames = Frames;
  S.QosViolations = uint64_t(ViolationPct);
  S.FrameLatenciesMs = {8.1, 16.9, 33.0};
  return S;
}

FleetCheckpoint makeCheckpoint() {
  FleetCheckpoint C;
  C.PlanName = "unit";
  C.PlanHash = 0xdeadbeefcafef00dull;
  C.BaselineGovernor = "Perf";
  C.ItemsTotal = 6;
  C.State.Agg.addRun(sample("BBC", "Perf", 9.5, 0.0, 300));
  C.State.Agg.addRun(sample("BBC", "GreenWeb-I", 6.25, 3.0, 310));
  C.State.Agg.addRun(sample("Todo", "Perf", 4.0, 1.0, 200));
  FleetShardRollup R;
  R.Shard = 0;
  R.FirstItem = 0;
  R.Items = 3;
  R.QosViolations = 4;
  R.Joules = 19.75;
  R.WorstItem = 1;
  R.WorstLabel = "BBC|GreenWeb-I|s1|none|r0";
  R.WorstViolationPct = 3.0;
  C.State.Shards.push_back(R);
  FleetWorstDevice D;
  D.Item = 1;
  D.Label = "BBC|GreenWeb-I|s1|none|r0";
  D.ViolationPct = 3.0;
  D.Joules = 6.25;
  D.BlackBoxRef = "item-000001";
  C.State.noteDevice(D);
  C.State.noteWarmKey("BBC#1");
  C.State.noteWarmKey("Todo#1");
  C.markDone(0);
  C.markDone(1);
  C.markDone(2);
  return C;
}

TEST(FleetReportTest, CheckpointRoundTripsExactly) {
  FleetCheckpoint C = makeCheckpoint();
  std::string Text = C.serialize();

  FleetCheckpoint Back;
  std::string Error;
  ASSERT_TRUE(FleetCheckpoint::load(Text, Back, &Error)) << Error;
  EXPECT_EQ(Back.PlanName, C.PlanName);
  EXPECT_EQ(Back.PlanHash, C.PlanHash);
  EXPECT_EQ(Back.ItemsTotal, C.ItemsTotal);
  EXPECT_EQ(Back.doneCount(), 3u);
  EXPECT_TRUE(Back.done(1));
  EXPECT_FALSE(Back.done(3));
  // Byte-exact round trip: the reloaded checkpoint serializes to the
  // same document, which is the property resume parity rests on.
  EXPECT_EQ(Back.serialize(), Text);
}

TEST(FleetReportTest, StateRoundTripIsByteExact) {
  FleetState S = makeCheckpoint().State;
  std::string Text = S.toJson();
  auto Doc = json::parse(Text);
  ASSERT_TRUE(Doc.has_value());
  FleetState Back;
  std::string Error;
  ASSERT_TRUE(FleetState::fromJson(*Doc, Back, &Error)) << Error;
  EXPECT_EQ(Back.toJson(), Text);
  EXPECT_EQ(Back.Agg.runs(), 3u);

  // Group and RunningStat counts must be exact integers in [0, 2^53]:
  // a tampered count is refused with a diagnostic, never truncated.
  for (auto [From, To] : {std::pair{"\"runs\":3,", "\"runs\":2.5,"},
                          std::pair{"\"frames\":810,", "\"frames\":1e17,"},
                          std::pair{"\"n\":3,", "\"n\":-3,"},
                          std::pair{"\"n\":3,", "\"n\":3.5,"}}) {
    std::string Tampered = Text;
    size_t Pos = Tampered.find(From);
    ASSERT_NE(Pos, std::string::npos) << From;
    Tampered.replace(Pos, std::string(From).size(), To);
    auto Bad = json::parse(Tampered);
    ASSERT_TRUE(Bad.has_value());
    Error.clear();
    EXPECT_FALSE(FleetState::fromJson(*Bad, Back, &Error)) << To;
    EXPECT_NE(Error.find("count is not an integer"), std::string::npos)
        << To << ": " << Error;
  }
}

TEST(FleetReportTest, TruncatedCheckpointRejectedWithClearError) {
  std::string Text = makeCheckpoint().serialize();
  // A torn write: drop the tail, then re-attach a valid-looking footer
  // so only the length check can catch it.
  FleetCheckpoint Out;
  std::string Error;
  EXPECT_FALSE(
      FleetCheckpoint::load(Text.substr(0, Text.size() / 2), Out, &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(FleetReportTest, BitFlippedCheckpointRejectedByChecksum) {
  std::string Text = makeCheckpoint().serialize();
  size_t Pos = Text.find("\"plan_name\":\"unit\"");
  ASSERT_NE(Pos, std::string::npos);
  Text[Pos + 14] = 'U'; // unit -> Unit, same length: footer still parses.
  FleetCheckpoint Out;
  std::string Error;
  EXPECT_FALSE(FleetCheckpoint::load(Text, Out, &Error));
  EXPECT_NE(Error.find("checksum"), std::string::npos) << Error;
}

TEST(FleetReportTest, EditedCheckpointRejectedByLength) {
  std::string Text = makeCheckpoint().serialize();
  size_t Pos = Text.find("\"plan_name\":\"unit\"");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos + 12, 6, "\"edited\""); // Length changes.
  FleetCheckpoint Out;
  std::string Error;
  EXPECT_FALSE(FleetCheckpoint::load(Text, Out, &Error));
  EXPECT_NE(Error.find("payload length"), std::string::npos) << Error;
}

TEST(FleetReportTest, ForeignInputRejected) {
  FleetCheckpoint Out;
  std::string Error;
  EXPECT_FALSE(FleetCheckpoint::load("{\"kind\":\"bench\"}", Out, &Error));
  EXPECT_NE(Error.find("not a fleet checkpoint"), std::string::npos)
      << Error;
}

TEST(FleetReportTest, SchemaOneCheckpointRefusedBeforeParsing) {
  // A schema-1 checkpoint (fixed-bucket aggregator histograms) with an
  // intact footer: only the schema check stands between it and a
  // half-parsed state, and it must fire first.
  std::string Text = makeCheckpoint().serialize();
  size_t Pos = Text.find("\"schema\":2,");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos, 11, "\"schema\":1,");
  size_t Footer = Text.rfind(",\"payload_length\":");
  ASSERT_NE(Footer, std::string::npos);
  Text.resize(Footer);
  Text += formatString(",\"payload_length\":%zu,\"checksum\":\"%016llx\"}\n",
                       Footer,
                       static_cast<unsigned long long>(fleetHash(Text)));

  FleetCheckpoint Out;
  Out.PlanName = "untouched";
  std::string Error;
  EXPECT_FALSE(FleetCheckpoint::load(Text, Out, &Error));
  EXPECT_NE(Error.find("unsupported fleet checkpoint schema"),
            std::string::npos)
      << Error;
  EXPECT_EQ(Out.PlanName, "untouched");
  EXPECT_EQ(Out.State.Agg.runs(), 0u);
}

TEST(FleetReportTest, EmbeddedReportExtractsByteForByte) {
  FleetCheckpoint C = makeCheckpoint();
  FleetReport Report = FleetReport::fromCheckpoint(C);
  C.ReportJson = Report.toJson();
  std::string Text = C.serialize();

  EXPECT_EQ(fleetReportSectionFromArtifact(Text), C.ReportJson);
  FleetCheckpoint Back;
  std::string Error;
  ASSERT_TRUE(FleetCheckpoint::load(Text, Back, &Error)) << Error;
  EXPECT_EQ(Back.ReportJson, C.ReportJson);
  // The offline derivation from the reloaded state matches too — the
  // gw-inspect fleet parity gate in miniature.
  EXPECT_EQ(FleetReport::fromCheckpoint(Back).toJson(), C.ReportJson);
}

TEST(FleetReportTest, WorstKOrderingAndTruncation) {
  FleetState S;
  for (uint64_t I = 0; I < 20; ++I) {
    FleetWorstDevice D;
    D.Item = I;
    D.Label = "dev";
    D.ViolationPct = double(I % 10);
    D.Joules = double(I);
    S.noteDevice(D);
  }
  ASSERT_EQ(S.Worst.size(), FleetState::WorstKCapacity);
  for (size_t I = 1; I < S.Worst.size(); ++I) {
    EXPECT_GE(S.Worst[I - 1].ViolationPct, S.Worst[I].ViolationPct);
    if (S.Worst[I - 1].ViolationPct == S.Worst[I].ViolationPct) {
      EXPECT_GT(S.Worst[I - 1].Joules, S.Worst[I].Joules);
    }
  }
  EXPECT_EQ(S.Worst.front().ViolationPct, 9.0);
  EXPECT_EQ(S.Worst.front().Joules, 19.0); // 19 beats 9 on joules.
}

/// A device drawn from a small grid of violation percentages and joules,
/// so sequences are full of ties on one field or on both.
FleetWorstDevice randomDevice(Rng &R, uint64_t Item) {
  FleetWorstDevice D;
  D.Item = Item;
  D.ViolationPct = double(R.uniformInt(0, 3)) * 2.5;
  D.Joules = double(R.uniformInt(1, 3));
  return D;
}

std::vector<uint64_t> worstItems(const FleetState &S) {
  std::vector<uint64_t> Items;
  for (const FleetWorstDevice &D : S.Worst)
    Items.push_back(D.Item);
  return Items;
}

TEST(FleetReportTest, CutPredicateMatchesNoteDevice) {
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    Rng R(Seed);
    FleetState S;
    const uint64_t Devices = uint64_t(R.uniformInt(1, 40));
    for (uint64_t Item = 0; Item < Devices; ++Item) {
      FleetWorstDevice D = randomDevice(R, Item);
      const bool Could = S.couldEnterWorst(D);
      const std::vector<uint64_t> Before = worstItems(S);
      S.noteDevice(D);
      const std::vector<uint64_t> After = worstItems(S);
      const bool Entered =
          std::find(After.begin(), After.end(), Item) != After.end();
      EXPECT_EQ(Entered, Could) << "seed " << Seed << " item " << Item;
      if (!Could) {
        EXPECT_EQ(After, Before) << "seed " << Seed << " item " << Item;
      }
    }
  }
}

TEST(FleetReportTest, CutAtBatchStartKeepsEveryDeviceTheFoldKeeps) {
  // The fleet driver serializes black boxes only for devices the cut,
  // taken once before a batch runs, lets through; every device of the
  // batch that the fold then keeps must be among them.
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    Rng R(Seed);
    FleetState S;
    uint64_t Item = 0;
    while (Item < 120) {
      const uint64_t Batch = uint64_t(R.uniformInt(1, 12));
      const FleetState AtStart = S;
      std::vector<uint64_t> Passed;
      for (uint64_t I = 0; I < Batch; ++I, ++Item) {
        FleetWorstDevice D = randomDevice(R, Item);
        if (AtStart.couldEnterWorst(D))
          Passed.push_back(Item);
        S.noteDevice(D);
      }
      for (uint64_t Kept : worstItems(S)) {
        if (Kept >= Item - Batch) {
          EXPECT_NE(std::find(Passed.begin(), Passed.end(), Kept),
                    Passed.end())
              << "seed " << Seed << " item " << Kept;
        }
      }
    }
  }
}

TEST(FleetReportTest, ReportCarriesEnergyExtrapolation) {
  FleetCheckpoint C = makeCheckpoint();
  std::string Json = FleetReport::fromCheckpoint(C).toJson();
  auto Doc = json::parse(Json);
  ASSERT_TRUE(Doc.has_value());
  const json::Value *Extrap = Doc->get("energy_extrapolation");
  ASSERT_NE(Extrap, nullptr);
  // Baseline Perf mean = (9.5 + 4.0) / 2 = 6.75 J; GreenWeb-I mean is
  // 6.25 J, saving 0.5 J/session = 0.5/3.6 kWh per million users.
  json::Reader E(*Extrap, "energy_extrapolation");
  EXPECT_NEAR(E.number("baseline_mean_joules", 0.0), 6.75, 1e-9);
  const json::Value *Per = Extrap->get("per_governor");
  ASSERT_NE(Per, nullptr);
  const json::Value *Gwi = Per->get("GreenWeb-I");
  ASSERT_NE(Gwi, nullptr);
  json::Reader G(*Gwi, "GreenWeb-I");
  EXPECT_NEAR(G.number("saved_j_per_run", 0.0), 0.5, 1e-9);
  EXPECT_NEAR(G.number("saved_kwh_per_million_users", 0.0), 0.5 / 3.6, 1e-4);
  const json::Value *WarmPool = Doc->get("warm_pool");
  ASSERT_NE(WarmPool, nullptr);
  json::Reader W(*WarmPool, "warm_pool");
  EXPECT_EQ(W.count("builds", 0), 2u);
  EXPECT_EQ(W.count("requests", 0), 3u);
}

} // namespace
