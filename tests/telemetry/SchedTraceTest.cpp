//===- tests/telemetry/SchedTraceTest.cpp - scheduler trace tests ---------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/SchedTrace.h"

#include "support/Json.h"

#include <gtest/gtest.h>

using namespace greenweb;

namespace {

SchedItem item(uint64_t Item, unsigned Worker, std::string Label,
               int64_t StartNs, int64_t RunNs, int64_t SetupNs = 0,
               int64_t SimNs = 0, int64_t HookNs = 0, int64_t MergeNs = 0,
               int64_t HubRecords = 0) {
  SchedItem I;
  I.Item = Item;
  I.Worker = Worker;
  I.Label = std::move(Label);
  I.StartNs = StartNs;
  I.RunNs = RunNs;
  I.SetupNs = SetupNs;
  I.SimNs = SimNs;
  I.HookNs = HookNs;
  I.MergeNs = MergeNs;
  I.HubRecords = HubRecords;
  return I;
}

/// Two workers, three items, merge window of 20 ns: every report
/// number below is checkable by hand.
SchedTrace handBuiltTrace() {
  return SchedTrace::fromParts(
      /*Workers=*/2, /*BatchNs=*/100, /*MergeWindowNs=*/20,
      {item(0, 0, "a", /*Start=*/10, /*Run=*/40, 5, 30, 2, 8, 3),
       item(1, 1, "b", /*Start=*/0, /*Run=*/90, 1, 85, 0, 12, 5),
       item(2, 0, "c", /*Start=*/60, /*Run=*/30, 2, 25, 1, 0, 0)});
}

} // namespace

TEST(SchedReportTest, ReportMathOnHandBuiltTrace) {
  SchedReport R = SchedReport::fromTrace(handBuiltTrace());
  EXPECT_EQ(R.Workers, 2u);
  EXPECT_EQ(R.Items, 3u);
  EXPECT_EQ(R.BatchNs, 100);
  EXPECT_EQ(R.MergeNs, 20);
  EXPECT_EQ(R.MakespanNs, 120);
  EXPECT_EQ(R.SerialSumNs, 160);
  EXPECT_EQ(R.MaxBusyNs, 90);
  EXPECT_DOUBLE_EQ(R.Speedup, 160.0 / 120.0);
  EXPECT_DOUBLE_EQ(R.Efficiency, 160.0 / 240.0);

  // Phases: totals across items, with the unattributed remainder.
  EXPECT_EQ(R.SetupNs, 8);
  EXPECT_EQ(R.SimNs, 140);
  EXPECT_EQ(R.HookNs, 3);
  EXPECT_EQ(R.ItemOverheadNs, 160 - 8 - 140 - 3);
  EXPECT_EQ(R.HubRecords, 8);

  // Worker 0 ran items 0 and 2: busy 70, wait 10 (first claim) + 10
  // (gap between end of item 0 at 50 and claim of item 2 at 60).
  ASSERT_EQ(R.PerWorker.size(), 2u);
  EXPECT_EQ(R.PerWorker[0].Items, 2u);
  EXPECT_EQ(R.PerWorker[0].BusyNs, 70);
  EXPECT_EQ(R.PerWorker[0].WaitNs, 20);
  EXPECT_DOUBLE_EQ(R.PerWorker[0].Utilization, 0.70);
  EXPECT_EQ(R.PerWorker[1].Items, 1u);
  EXPECT_EQ(R.PerWorker[1].BusyNs, 90);
  EXPECT_EQ(R.PerWorker[1].WaitNs, 0);
  EXPECT_DOUBLE_EQ(R.PerWorker[1].Utilization, 0.90);

  // Stragglers ranked by run time, longest first.
  ASSERT_EQ(R.Stragglers.size(), 3u);
  EXPECT_EQ(R.Stragglers[0].Item, 1u);
  EXPECT_EQ(R.Stragglers[0].Label, "b");
  EXPECT_EQ(R.Stragglers[1].Item, 0u);
  EXPECT_EQ(R.Stragglers[2].Item, 2u);
}

TEST(SchedReportTest, AttributionFractionsSumToOne) {
  SchedReport R = SchedReport::fromTrace(handBuiltTrace());
  // Makespan = mean-busy + imbalance + overhead + merge, exactly.
  EXPECT_DOUBLE_EQ(R.ComputeFraction, 80.0 / 120.0);
  EXPECT_DOUBLE_EQ(R.ImbalanceFraction, 10.0 / 120.0);
  EXPECT_DOUBLE_EQ(R.OverheadFraction, 10.0 / 120.0);
  EXPECT_DOUBLE_EQ(R.MergeFraction, 20.0 / 120.0);
  EXPECT_NEAR(R.ComputeFraction + R.ImbalanceFraction +
                  R.OverheadFraction + R.MergeFraction,
              1.0, 1e-12);
}

TEST(SchedReportTest, EmptyTraceYieldsZeroedReport) {
  SchedReport R = SchedReport::fromTrace(SchedTrace());
  EXPECT_EQ(R.Items, 0u);
  EXPECT_EQ(R.MakespanNs, 0);
  EXPECT_DOUBLE_EQ(R.Speedup, 0.0);
  EXPECT_TRUE(R.Stragglers.empty());
}

TEST(SchedTraceTest, ItemsSortedByIndexWithMergeNotesFolded) {
  SchedTrace T;
  T.beginBatch(/*Workers=*/2, /*Items=*/3);
  // Completion order scrambled across workers; items() must come back
  // in config index order with the post-batch merge costs attached.
  T.record(item(2, 1, "c", 30, 10));
  T.record(item(0, 0, "a", 0, 25));
  T.record(item(1, 1, "b", 5, 20));
  T.endBatch();
  T.noteMerge(1, /*MergeNs=*/7, /*HubRecords=*/4);
  T.noteMerge(2, /*MergeNs=*/3, /*HubRecords=*/1);
  T.setMergeWindowNs(10);

  std::vector<SchedItem> Items = T.items();
  ASSERT_EQ(Items.size(), 3u);
  EXPECT_EQ(Items[0].Item, 0u);
  EXPECT_EQ(Items[1].Item, 1u);
  EXPECT_EQ(Items[2].Item, 2u);
  EXPECT_EQ(Items[0].MergeNs, 0);
  EXPECT_EQ(Items[1].MergeNs, 7);
  EXPECT_EQ(Items[1].HubRecords, 4);
  EXPECT_EQ(Items[2].MergeNs, 3);
  EXPECT_TRUE(T.active());
  EXPECT_EQ(T.mergeWindowNs(), 10);
}

TEST(SchedTraceTest, RecordDropsOutOfRangeWorkerIds) {
  SchedTrace T;
  T.beginBatch(/*Workers=*/1, /*Items=*/2);
  T.record(item(0, 0, "ok", 0, 1));
  T.record(item(1, 5, "lost", 0, 1));
  EXPECT_EQ(T.items().size(), 1u);
}

TEST(SchedReportTest, ToJsonIsDeterministic) {
  SchedReport R = SchedReport::fromTrace(handBuiltTrace());
  std::string A = R.toJson();
  EXPECT_EQ(A, R.toJson());
  EXPECT_NE(A.find("\"speedup\":1.333333"), std::string::npos);
  EXPECT_NE(A.find("\"attribution\":{\"compute\":"), std::string::npos);
  EXPECT_NE(A.find("\"merge_serialization\":0.166667"),
            std::string::npos);
}

TEST(SchedTraceTest, ArtifactRoundTripReproducesReportByteForByte) {
  SchedTrace T = handBuiltTrace();
  SchedReport R = SchedReport::fromTrace(T);
  std::string Artifact = schedArtifactJson(T, R);

  SchedTrace Replayed;
  std::string Error;
  ASSERT_TRUE(schedTraceFromArtifact(Artifact, Replayed, &Error)) << Error;
  SchedReport Offline = SchedReport::fromTrace(Replayed);

  // The gw-inspect parity gate: the recomputed report must match the
  // embedded section byte-for-byte, extracted raw from the artifact.
  std::string Embedded = schedReportSectionFromArtifact(Artifact);
  ASSERT_FALSE(Embedded.empty());
  EXPECT_EQ(Offline.toJson(), Embedded);
  EXPECT_EQ(Offline.toJson(), R.toJson());
  EXPECT_EQ(Offline.format(), R.format());
}

TEST(SchedTraceTest, ReportSectionExtractorSkipsBracesInsideLabels) {
  SchedTrace T = SchedTrace::fromParts(
      1, 50, 0, {item(0, 0, "we{ird\"}label", 0, 50)});
  SchedReport R = SchedReport::fromTrace(T);
  std::string Artifact = schedArtifactJson(T, R);
  EXPECT_EQ(schedReportSectionFromArtifact(Artifact), R.toJson());
}

TEST(SchedTraceTest, FromArtifactRejectsForeignDocuments) {
  SchedTrace Out;
  std::string Error;
  EXPECT_FALSE(schedTraceFromArtifact("{\"kind\":\"other\"}", Out, &Error));
  EXPECT_NE(Error.find("sched"), std::string::npos);
  EXPECT_FALSE(schedTraceFromArtifact("not json", Out, &Error));
  EXPECT_NE(Error.find("invalid JSON"), std::string::npos);
  EXPECT_FALSE(
      schedTraceFromArtifact("{\"kind\":\"sched_trace\"}", Out, &Error));
  EXPECT_NE(Error.find("items"), std::string::npos);
}

/// An event array holding \p Lead (when non-empty) and then the
/// scheduler tracks of \p Trace.
std::string schedTraceArray(const SchedTrace &Trace, const char *Lead) {
  std::string Out;
  json::Writer W(Out);
  W.beginArray();
  if (*Lead)
    W.raw(Lead);
  appendSchedTraceEvents(W, Trace);
  W.endArray();
  return Out;
}

TEST(SchedTraceTest, PerfettoFragmentSplicesIntoEventArrays) {
  EXPECT_EQ(schedTraceArray(SchedTrace(), ""), "[]");
  EXPECT_EQ(schedTraceArray(SchedTrace(), "{}"), "[{}]");

  // Every scheduler event starts its own line, after the array's
  // opening bracket or after the events already in it.
  std::string Frag = schedTraceArray(handBuiltTrace(), "");
  EXPECT_EQ(Frag.substr(0, 3), "[\n{");
  EXPECT_TRUE(json::parse(Frag)) << Frag;
  std::string Joined = schedTraceArray(handBuiltTrace(), "{}");
  EXPECT_EQ(Joined.substr(0, 5), "[{},\n");
  EXPECT_EQ(Joined.substr(4), Frag.substr(1));
  EXPECT_NE(Frag.find("sweep scheduler (host time)"), std::string::npos);
  EXPECT_NE(Frag.find("worker 0 (caller)"), std::string::npos);
  EXPECT_NE(Frag.find("\"(wait)\""), std::string::npos);
  EXPECT_NE(Frag.find("merge (serialized)"), std::string::npos);
  // Item slices carry their labels and phase args.
  EXPECT_NE(Frag.find("\"name\":\"b\""), std::string::npos);
  EXPECT_NE(Frag.find("\"sim_ns\":85"), std::string::npos);
}

TEST(SchedProgressTest, RenderLineReportsCompletionAndUtilization) {
  std::FILE *Sink = std::fopen("/dev/null", "w");
  ASSERT_NE(Sink, nullptr);
  {
    SchedProgress P(Sink);
    P.begin(/*Workers=*/2, /*Items=*/4, "soak");
    P.itemDone(/*Worker=*/0, /*BusyNs=*/1'000'000);
    std::string Line = P.renderLine();
    EXPECT_NE(Line.find("[soak] 1/4 items"), std::string::npos);
    EXPECT_NE(Line.find("eta"), std::string::npos);
    EXPECT_NE(Line.find("util w0"), std::string::npos);
    P.itemDone(0, 1);
    P.itemDone(1, 1);
    P.itemDone(1, 1);
    Line = P.renderLine();
    EXPECT_NE(Line.find("4/4 items"), std::string::npos);
    // Complete: no ETA on the final line.
    EXPECT_EQ(Line.find("eta"), std::string::npos);
    P.finish();
  }
  std::fclose(Sink);
}
