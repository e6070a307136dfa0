//===- tests/profiling/RunCompareTest.cpp - gw-diff core tests ------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profiling/RunCompare.h"

#include "support/Json.h"
#include "support/TablePrinter.h"

#include <gtest/gtest.h>

using namespace greenweb;
using prof::CompareOptions;
using prof::CompareResult;
using prof::Direction;
using prof::RunSnapshot;
using prof::Verdict;

namespace {

/// A synthetic bench artifact with one timed benchmark (with raw
/// samples centred on \p NsPerOp) and one sample-free scalar.
std::string benchJson(double NsPerOp, double SweepSecs,
                      const char *Commit = "abc1234", int Schema = 1) {
  std::string Samples = "[";
  for (int I = 0; I < 12; ++I) {
    if (I)
      Samples += ",";
    // Tight spread: +/-1% around the centre, deterministic.
    double Jitter = 1.0 + 0.01 * ((I % 3) - 1);
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.3f", NsPerOp * Jitter);
    Samples += Buf;
  }
  Samples += "]";
  char Head[512];
  std::snprintf(
      Head, sizeof(Head),
      "{\n  \"harness\": \"bench_x\",\n"
      "  \"meta\": {\"schema\":%d,\"git_commit\":\"%s\",\"build_type\":"
      "\"Release\",\"compiler\":\"GNU 12.2.0\",\"hardware_threads\":4,"
      "\"flags\":\"bench_x\"},\n",
      Schema, Commit);
  char Body[512];
  std::snprintf(
      Body, sizeof(Body),
      "  \"benchmarks\": [\n"
      "    {\"name\":\"kernel\",\"iterations\":1000,\"ns_per_op\":%.3f,"
      "\"events_per_sec\":%.1f,\"samples_ns_per_op\":%s}\n  ],\n"
      "  \"scalars\": [\n"
      "    {\"name\":\"sweep_serial_seconds\",\"value\":%.3f,"
      "\"unit\":\"s\"}\n  ]\n}\n",
      NsPerOp, 1e9 / NsPerOp, Samples.c_str(), SweepSecs);
  return std::string(Head) + Body;
}

RunSnapshot mustParse(const std::string &Text) {
  std::string Error;
  auto S = RunSnapshot::parse(Text, &Error);
  if (!S) {
    ADD_FAILURE() << "parse failed: " << Error;
    return RunSnapshot{};
  }
  return *S;
}

const prof::MetricDelta *findDelta(const CompareResult &R,
                                   const std::string &Name) {
  for (const prof::MetricDelta &D : R.Deltas)
    if (D.Name == Name)
      return &D;
  return nullptr;
}

TEST(RunCompareTest, BenchParseNormalizesMetrics) {
  RunSnapshot S = mustParse(benchJson(100.0, 2.0));
  EXPECT_EQ(S.SourceKind, "bench");
  EXPECT_EQ(S.Harness, "bench_x");
  ASSERT_TRUE(S.HasMeta);
  EXPECT_EQ(S.Meta.GitCommit, "abc1234");
  EXPECT_EQ(S.Meta.HardwareThreads, 4u);

  const prof::MetricSeries *Ns = S.find("kernel.ns_per_op");
  ASSERT_NE(Ns, nullptr);
  EXPECT_DOUBLE_EQ(Ns->Value, 100.0);
  EXPECT_TRUE(Ns->hasSamples());
  EXPECT_EQ(Ns->Samples.size(), 12u);

  EXPECT_NE(S.find("kernel.events_per_sec"), nullptr);
  EXPECT_NE(S.find("sweep_serial_seconds"), nullptr);
}

TEST(RunCompareTest, DirectionInference) {
  EXPECT_EQ(prof::metricDirection("kernel.ns_per_op"),
            Direction::LowerIsBetter);
  EXPECT_EQ(prof::metricDirection("sweep_serial_seconds"),
            Direction::LowerIsBetter);
  // *_per_sec wins over the _seconds suffix check.
  EXPECT_EQ(prof::metricDirection("kernel.events_per_sec"),
            Direction::HigherIsBetter);
  EXPECT_EQ(prof::metricDirection("sweep_speedup"),
            Direction::HigherIsBetter);
  EXPECT_EQ(prof::metricDirection("governor.decisions"),
            Direction::Neutral);
}

TEST(RunCompareTest, ImprovedRun) {
  RunSnapshot Base = mustParse(benchJson(100.0, 2.0));
  RunSnapshot Cand = mustParse(benchJson(70.0, 1.4)); // 30% faster.
  CompareResult R = prof::compareRuns(Base, Cand);
  ASSERT_TRUE(R.comparable()) << R.MetaError;
  EXPECT_FALSE(R.hasRegressions());
  EXPECT_GE(R.Improved, 2u); // ns_per_op and events_per_sec at least.

  const prof::MetricDelta *D = findDelta(R, "kernel.ns_per_op");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->V, Verdict::Improved);
  EXPECT_TRUE(D->HasStats);
  EXPECT_LT(D->PValue, 0.05);
  EXPECT_LT(D->CiHiPct, 0.0); // Whole CI below zero: a real drop.
}

TEST(RunCompareTest, RegressedRun) {
  RunSnapshot Base = mustParse(benchJson(100.0, 2.0));
  RunSnapshot Cand = mustParse(benchJson(140.0, 2.9)); // 40% slower.
  CompareResult R = prof::compareRuns(Base, Cand);
  ASSERT_TRUE(R.comparable());
  EXPECT_TRUE(R.hasRegressions());
  const prof::MetricDelta *D = findDelta(R, "kernel.ns_per_op");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->V, Verdict::Regressed);
  // The sample-free scalar regresses on the threshold alone.
  const prof::MetricDelta *Sweep = findDelta(R, "sweep_serial_seconds");
  ASSERT_NE(Sweep, nullptr);
  EXPECT_EQ(Sweep->V, Verdict::Regressed);
  EXPECT_FALSE(Sweep->HasStats);
}

TEST(RunCompareTest, NoisyRunStaysUnchanged) {
  // 2% shift with overlapping sample spreads, 5% noise threshold.
  RunSnapshot Base = mustParse(benchJson(100.0, 2.0));
  RunSnapshot Cand = mustParse(benchJson(102.0, 2.04));
  CompareResult R = prof::compareRuns(Base, Cand);
  ASSERT_TRUE(R.comparable());
  EXPECT_FALSE(R.hasRegressions());
  const prof::MetricDelta *D = findDelta(R, "kernel.ns_per_op");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->V, Verdict::Unchanged);
}

TEST(RunCompareTest, DeterministicReports) {
  RunSnapshot Base = mustParse(benchJson(100.0, 2.0));
  RunSnapshot Cand = mustParse(benchJson(85.0, 1.8));
  CompareOptions Opts;
  CompareResult R1 = prof::compareRuns(Base, Cand, Opts);
  CompareResult R2 = prof::compareRuns(Base, Cand, Opts);
  EXPECT_EQ(prof::formatCompareReport(R1, Opts),
            prof::formatCompareReport(R2, Opts));
  EXPECT_EQ(prof::compareReportJson(R1, Opts),
            prof::compareReportJson(R2, Opts));
  EXPECT_TRUE(json::parse(prof::compareReportJson(R1, Opts)));
}

TEST(RunCompareTest, SchemaMismatchRefuses) {
  RunSnapshot Base = mustParse(benchJson(100.0, 2.0, "abc1234", 1));
  RunSnapshot Cand = mustParse(benchJson(100.0, 2.0, "abc1234", 2));
  CompareResult R = prof::compareRuns(Base, Cand);
  EXPECT_FALSE(R.comparable());
  EXPECT_NE(R.MetaError.find("schema"), std::string::npos);
}

TEST(RunCompareTest, StrictMetaRefusesEnvironmentDiffs) {
  std::string Other = benchJson(100.0, 2.0);
  size_t Pos = Other.find("GNU 12.2.0");
  ASSERT_NE(Pos, std::string::npos);
  Other.replace(Pos, 10, "Clang 16.0");
  RunSnapshot Base = mustParse(benchJson(100.0, 2.0));
  RunSnapshot Cand = mustParse(Other);

  CompareResult Loose = prof::compareRuns(Base, Cand);
  EXPECT_TRUE(Loose.comparable());
  EXPECT_FALSE(Loose.MetaWarnings.empty());

  CompareOptions Strict;
  Strict.StrictMeta = true;
  CompareResult R = prof::compareRuns(Base, Cand, Strict);
  EXPECT_FALSE(R.comparable());
}

TEST(RunCompareTest, MetricsSnapshotIngest) {
  const char *Snapshot =
      "{\n  \"meta\": {\"schema\":1,\"git_commit\":\"abc\",\"build_type\":"
      "\"Release\",\"compiler\":\"g\",\"hardware_threads\":1,\"flags\":\"\"},"
      "\n  \"counters\": {\"browser.frames\": 12},\n"
      "  \"gauges\": {\"sim.host_seconds\": 0.5},\n"
      "  \"histograms\": {\"frame_ms\": {\"count\": 12, \"mean\": 8.0,"
      " \"p50\": 7.5, \"p95\": 12.0, \"p99\": 15.0}}\n}\n";
  RunSnapshot S = mustParse(Snapshot);
  EXPECT_EQ(S.SourceKind, "metrics");
  EXPECT_TRUE(S.HasMeta);
  EXPECT_NE(S.find("browser.frames"), nullptr);
  EXPECT_NE(S.find("sim.host_seconds"), nullptr);
  const prof::MetricSeries *P95 = S.find("frame_ms.p95");
  ASSERT_NE(P95, nullptr);
  EXPECT_DOUBLE_EQ(P95->Value, 12.0);
}

TEST(RunCompareTest, TelemetryJsonlIngest) {
  const char *Log =
      "{\"kind\":\"meta\",\"schema\":1,\"git_commit\":\"abc\","
      "\"build_type\":\"Release\",\"compiler\":\"g\","
      "\"hardware_threads\":1,\"flags\":\"\"}\n"
      "{\"kind\":\"qos_violation\",\"latency_ms\":20.0,\"target_ms\":16.6}\n"
      "{\"kind\":\"qos_violation\",\"latency_ms\":18.0,\"target_ms\":16.6}\n"
      "{\"kind\":\"governor_decision\",\"predicted_ms\":9.0}\n";
  RunSnapshot S = mustParse(Log);
  EXPECT_EQ(S.SourceKind, "telemetry");
  EXPECT_TRUE(S.HasMeta);
  const prof::MetricSeries *Count = S.find("telemetry.qos_violation.count");
  ASSERT_NE(Count, nullptr);
  EXPECT_DOUBLE_EQ(Count->Value, 2.0);
  const prof::MetricSeries *Mean =
      S.find("telemetry.qos_violation.latency_ms.mean");
  ASSERT_NE(Mean, nullptr);
  EXPECT_DOUBLE_EQ(Mean->Value, 19.0);
}

TEST(RunCompareTest, SourceKindMismatchRefuses) {
  RunSnapshot Bench = mustParse(benchJson(100.0, 2.0));
  RunSnapshot Metrics = mustParse(
      "{\"counters\": {\"x\": 1}, \"gauges\": {}, \"histograms\": {}}");
  CompareResult R = prof::compareRuns(Bench, Metrics);
  EXPECT_FALSE(R.comparable());
}

TEST(RunCompareTest, BaselineOnlyAndCandidateOnly) {
  RunSnapshot Base = mustParse(
      "{\"counters\": {\"only.base\": 1, \"shared\": 2}}");
  RunSnapshot Cand = mustParse(
      "{\"counters\": {\"only.cand\": 1, \"shared\": 2}}");
  CompareResult R = prof::compareRuns(Base, Cand);
  ASSERT_TRUE(R.comparable());
  const prof::MetricDelta *B = findDelta(R, "only.base");
  const prof::MetricDelta *C = findDelta(R, "only.cand");
  ASSERT_NE(B, nullptr);
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(B->V, Verdict::BaselineOnly);
  EXPECT_EQ(C->V, Verdict::CandidateOnly);
}

TEST(RunCompareTest, HeaderlessBenchDocsParseAsBench) {
  // Bench JSONs from before the "harness" field existed carry only
  // "benchmarks"/"scalars"; they must ingest as bench, not refuse.
  RunSnapshot B = mustParse(
      "{\"benchmarks\": [{\"name\":\"kernel\",\"ns_per_op\":100.0}]}");
  EXPECT_EQ(B.SourceKind, "bench");
  EXPECT_NE(B.find("kernel.ns_per_op"), nullptr);

  RunSnapshot S = mustParse(
      "{\"scalars\": [{\"name\":\"sweep_seconds\",\"value\":2.0}]}");
  EXPECT_EQ(S.SourceKind, "bench");
  EXPECT_NE(S.find("sweep_seconds"), nullptr);

  CompareResult R = prof::compareRuns(B, mustParse(benchJson(140.0, 2.9)));
  ASSERT_TRUE(R.comparable()) << R.MetaError;
}

TEST(RunCompareTest, SamplesOnOneSideFallBackToPointComparison) {
  RunSnapshot Base = mustParse(benchJson(100.0, 2.0));
  // Candidate carries the metric but no raw samples.
  RunSnapshot Cand = mustParse(
      "{\"harness\": \"bench_x\",\n"
      "  \"meta\": {\"schema\":1,\"git_commit\":\"abc1234\",\"build_type\":"
      "\"Release\",\"compiler\":\"GNU 12.2.0\",\"hardware_threads\":4,"
      "\"flags\":\"bench_x\"},\n"
      "  \"benchmarks\": [{\"name\":\"kernel\",\"ns_per_op\":140.0}]}");
  CompareResult R = prof::compareRuns(Base, Cand);
  ASSERT_TRUE(R.comparable()) << R.MetaError;
  const prof::MetricDelta *D = findDelta(R, "kernel.ns_per_op");
  ASSERT_NE(D, nullptr);
  EXPECT_FALSE(D->HasStats); // No stats without samples on both sides...
  EXPECT_EQ(D->V, Verdict::Regressed); // ...but the threshold still fires.
}

TEST(RunCompareTest, GovernorMetaRoundTrips) {
  // The optional governor field is serialized only when set, so
  // governor-less artifacts keep their exact pre-field bytes.
  prof::RunMeta M;
  M.GitCommit = "abc";
  EXPECT_EQ(M.toJsonObject().find("governor"), std::string::npos);
  EXPECT_EQ(M.toJsonlLine().find("governor"), std::string::npos);
  M.Governor = "Predictive-I";
  EXPECT_NE(M.toJsonObject().find("\"governor\":\"Predictive-I\""),
            std::string::npos);

  std::string Artifact = benchJson(100.0, 2.0);
  size_t Pos = Artifact.find("\"flags\":\"bench_x\"");
  ASSERT_NE(Pos, std::string::npos);
  Artifact.insert(Pos, "\"governor\":\"GreenWeb-I\",");
  RunSnapshot S = mustParse(Artifact);
  ASSERT_TRUE(S.HasMeta);
  EXPECT_EQ(S.Meta.Governor, "GreenWeb-I");
  // No governor in the document parses as "not stamped".
  EXPECT_EQ(mustParse(benchJson(100.0, 2.0)).Meta.Governor, "");
}

TEST(RunCompareTest, MannWhitneySanity) {
  std::vector<double> A{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> Shifted{11, 12, 13, 14, 15, 16, 17, 18};
  EXPECT_LT(prof::mannWhitneyPValue(A, Shifted), 0.01);
  EXPECT_GT(prof::mannWhitneyPValue(A, A), 0.9);
  EXPECT_DOUBLE_EQ(prof::mannWhitneyPValue({1.0}, {2.0}), 1.0);
}

TEST(RunCompareTest, BootstrapCiIsDeterministicAndBrackets) {
  std::vector<double> Base{100, 101, 99, 100, 102, 98, 100, 101};
  std::vector<double> Cand{80, 81, 79, 80, 82, 78, 80, 81};
  prof::BootstrapCi Ci1 =
      prof::bootstrapMeanDeltaCi(Base, Cand, 1000, 42);
  prof::BootstrapCi Ci2 =
      prof::bootstrapMeanDeltaCi(Base, Cand, 1000, 42);
  EXPECT_DOUBLE_EQ(Ci1.LoPct, Ci2.LoPct);
  EXPECT_DOUBLE_EQ(Ci1.HiPct, Ci2.HiPct);
  // True delta is -20%; the CI must bracket it and stay negative.
  EXPECT_LT(Ci1.LoPct, -20.0 + 5.0);
  EXPECT_GT(Ci1.HiPct, -20.0 - 5.0);
  EXPECT_LT(Ci1.HiPct, 0.0);
}

//===----------------------------------------------------------------------===//
// BenchReport: the one writer of the document RunSnapshot::parse reads
//===----------------------------------------------------------------------===//

TEST(BenchReportTest, EveryFieldShapeRoundTripsThroughRunSnapshot) {
  // The shapes the bench harnesses, chaos_evaluation and
  // learned_ablation emit: a benchmark with rate, note and samples, a
  // bare one, a scalar with unit, note and samples, a bare scalar, and
  // a titled table.
  prof::BenchReport R("bench_\"x\"");
  R.metric("kernel", 1000, 12.3456, "events_per_sec", 81000.5, "a note",
           {12.0, 13.5, 11.25});
  R.metric("plain", 5, 1.0);
  R.scalar("speedup", 2.5, "x", {2.4, 2.6}, "oversubscribed: 2 jobs");
  R.scalar("bare", 7.0);
  TablePrinter T("Fig. \"9\"");
  T.row().cell("App").cell("Energy");
  T.row().cell("BBC").cell("42.0%");
  R.table("Energy", T);
  prof::RunMeta Meta;
  Meta.GitCommit = "abc1234";
  Meta.Flags = "bench_x --json=out.json";
  Meta.Governor = "GreenWeb-I";
  std::string Doc = R.json(Meta);

  RunSnapshot S = mustParse(Doc);
  EXPECT_EQ(S.SourceKind, "bench");
  EXPECT_EQ(S.Harness, "bench_\"x\"");
  ASSERT_TRUE(S.HasMeta);
  EXPECT_EQ(S.Meta.GitCommit, "abc1234");
  EXPECT_EQ(S.Meta.Flags, Meta.Flags);
  EXPECT_EQ(S.Meta.Governor, "GreenWeb-I");
  std::vector<std::string> Names;
  for (const prof::MetricSeries &M : S.Metrics)
    Names.push_back(M.Name);
  EXPECT_EQ(Names, (std::vector<std::string>{
                       "bare", "kernel.events_per_sec", "kernel.ns_per_op",
                       "plain.ns_per_op", "speedup"}));
  const prof::MetricSeries *Kernel = S.find("kernel.ns_per_op");
  ASSERT_NE(Kernel, nullptr);
  EXPECT_DOUBLE_EQ(Kernel->Value, 12.346); // 3 digits after the point.
  EXPECT_EQ(Kernel->Samples, (std::vector<double>{12.0, 13.5, 11.25}));
  EXPECT_DOUBLE_EQ(S.find("kernel.events_per_sec")->Value, 81000.5);
  const prof::MetricSeries *Speedup = S.find("speedup");
  ASSERT_NE(Speedup, nullptr);
  EXPECT_DOUBLE_EQ(Speedup->Value, 2.5);
  EXPECT_EQ(Speedup->Unit, "x");
  EXPECT_EQ(Speedup->Samples, (std::vector<double>{2.4, 2.6}));
  EXPECT_TRUE(S.find("bare")->Samples.empty());

  // What the snapshot does not keep: notes, iterations and tables.
  std::optional<json::Value> V = json::parse(Doc);
  ASSERT_TRUE(V);
  const json::Value &B = V->get("benchmarks")->Arr[0];
  EXPECT_EQ(B.stringOr("note", ""), "a note");
  EXPECT_EQ(json::Reader(B, "benchmark").count("iterations", 0), 1000u);
  EXPECT_EQ(V->get("scalars")->Arr[0].stringOr("note", ""),
            "oversubscribed: 2 jobs");
  const json::Value &Table = V->get("tables")->Arr[0];
  EXPECT_EQ(Table.stringOr("title", ""), "Fig. \"9\"");
  ASSERT_EQ(Table.get("rows")->Arr.size(), 2u);
  EXPECT_EQ(Table.get("rows")->Arr[1].Arr[1].Str, "42.0%");
}

TEST(BenchReportTest, LayoutIsOneEntryPerLine) {
  // The committed reports (docs/reports, BENCH_*.json) diff line by
  // line; this pins the layout they were written in.
  prof::BenchReport R("h", /*SampleDigits=*/6);
  R.metric("m", 2, 1.5, "", 0.0, "", {1.0});
  R.scalar("s", 0.25, "%", {0.5});
  TablePrinter T;
  T.row().cell("a").cell("b");
  T.row().cell("c");
  R.table("t", T);
  prof::RunMeta Meta;
  Meta.GitCommit = "c";
  Meta.BuildType = "b";
  Meta.Compiler = "g";
  Meta.HardwareThreads = 1;
  EXPECT_EQ(R.json(Meta),
            "{\n"
            "  \"harness\": \"h\",\n"
            "  \"meta\": {\"schema\":1,\"git_commit\":\"c\","
            "\"build_type\":\"b\",\"compiler\":\"g\","
            "\"hardware_threads\":1,\"flags\":\"\"},\n"
            "  \"benchmarks\": [\n"
            "    {\"name\":\"m\",\"iterations\":2,\"ns_per_op\":1.500,"
            "\"samples_ns_per_op\":[1.000000]}\n"
            "  ],\n"
            "  \"scalars\": [\n"
            "    {\"name\":\"s\",\"value\":0.250000,\"unit\":\"%\","
            "\"samples\":[0.500000]}\n"
            "  ],\n"
            "  \"tables\": [\n"
            "    {\"name\":\"t\",\"rows\":[\n"
            "      [\"a\",\"b\"],\n"
            "      [\"c\"]\n"
            "    ]}\n"
            "  ]\n"
            "}\n");
  // Sections with no entries are left out.
  EXPECT_EQ(prof::BenchReport("e").json(Meta).find("scalars"),
            std::string::npos);
}

TEST(BenchReportTest, SamplesCapKeepsAnEvenStride) {
  prof::BenchReport R("h", 3, /*SamplesCap=*/2);
  R.scalar("s", 1.0, "", {1.0, 2.0, 3.0, 4.0});
  RunSnapshot S = mustParse(R.json(prof::RunMeta()));
  EXPECT_EQ(S.find("s")->Samples, (std::vector<double>{1.0, 3.0}));
}

} // namespace
