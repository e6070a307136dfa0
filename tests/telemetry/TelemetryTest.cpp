//===- tests/telemetry/TelemetryTest.cpp - telemetry subsystem tests -----------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Telemetry.h"

#include "sim/Simulator.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

using namespace greenweb;

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

TEST(MetricsRegistryTest, CounterAndGaugeBasics) {
  MetricsRegistry M;
  EXPECT_FALSE(M.has("a.count"));
  Counter &C = M.counter("a.count");
  C.add();
  C.add(4);
  EXPECT_EQ(C.value(), 5u);
  EXPECT_TRUE(M.has("a.count"));
  // Registration is idempotent: same name, same object.
  EXPECT_EQ(&M.counter("a.count"), &C);

  Gauge &G = M.gauge("a.level");
  G.set(2.5);
  G.add(0.5);
  EXPECT_DOUBLE_EQ(G.value(), 3.0);
  EXPECT_EQ(M.size(), 2u);
}

TEST(MetricsRegistryTest, HistogramBucketsAndSummary) {
  MetricsRegistry M;
  Histogram &H = M.histogram("lat");
  for (double X : {0.5, 1.0, 5.0, 99.0})
    H.observe(X);
  // Summary fields are exact; the sketch buckets carry the same count.
  EXPECT_EQ(H.summary().count(), 4u);
  EXPECT_EQ(H.sketch().count(), 4u);
  EXPECT_DOUBLE_EQ(H.summary().mean(), 105.5 / 4.0);
  EXPECT_DOUBLE_EQ(H.summary().min(), 0.5);
  EXPECT_DOUBLE_EQ(H.summary().max(), 99.0);
  // Quantiles are sketch bucket midpoints: within 1/64 of the sample.
  EXPECT_NEAR(H.quantile(0.0), 0.5, 0.5 / 64.0);
  EXPECT_NEAR(H.quantile(0.5), 1.0, 1.0 / 64.0);
  EXPECT_NEAR(H.quantile(1.0), 99.0, 99.0 / 64.0);
  // Later registrations return the same histogram.
  EXPECT_EQ(&M.histogram("lat"), &H);
  EXPECT_EQ(M.size(), 1u);
}

TEST(MetricsRegistryTest, HistogramQuantilesMatchOrderStatistics) {
  MetricsRegistry M;
  Histogram &H = M.histogram("browser.frame_latency_ms");
  EXPECT_DOUBLE_EQ(H.quantile(0.5), 0.0); // No observations yet.
  // 99 frames at 20 ms and one at 30 ms, between the Table 1 continuous
  // targets (16.6 and 33.3 ms). Interpolating inside a (16.7, 33.3]
  // bucket reported p50 = 25 ms; the exact order statistic is 20 ms,
  // and the sketch stays within its 1/(2*32) relative bound of it.
  for (int I = 0; I < 99; ++I)
    H.observe(20.0);
  H.observe(30.0);
  const double Bound = 1.0 / 64.0;
  EXPECT_NEAR(H.quantile(0.50), 20.0, 20.0 * Bound);
  EXPECT_NEAR(H.quantile(0.99), 20.0, 20.0 * Bound);
  EXPECT_DOUBLE_EQ(H.quantile(1.0), 30.0);
  std::string Json = M.snapshotJson();
  EXPECT_EQ(Json.find("\"p50\": 25.0"), std::string::npos) << Json;

  // Spread samples: quantile Q reads the order statistic at rank
  // floor(Q * (n - 1)), not a value interpolated between samples.
  Histogram &S = M.histogram("spread");
  for (double X : {5.0, 15.0, 25.0, 35.0})
    S.observe(X);
  EXPECT_NEAR(S.quantile(0.25), 5.0, 5.0 * Bound);
  EXPECT_NEAR(S.quantile(0.50), 15.0, 15.0 * Bound);
  EXPECT_NEAR(S.quantile(0.75), 25.0, 25.0 * Bound);
  EXPECT_DOUBLE_EQ(S.quantile(1.0), 35.0);
}

TEST(MetricsRegistryTest, SnapshotsCarryQuantileFields) {
  MetricsRegistry M;
  M.histogram("h").observe(0.5);
  std::string Json = M.snapshotJson();
  // A single observation pins every estimate to that value.
  EXPECT_NE(Json.find("\"p50\": 0.5"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"p90\": 0.5"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"p95\": 0.5"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"p99\": 0.5"), std::string::npos) << Json;
  EXPECT_EQ(Json.find("\"bounds\""), std::string::npos) << Json;
  EXPECT_EQ(Json.find("\"buckets\""), std::string::npos) << Json;
}

TEST(MetricsRegistryTest, JsonSnapshotIsValidAndOrdered) {
  MetricsRegistry M;
  M.counter("z.last").add(1);
  M.counter("a.first").add(2);
  M.gauge("m.mid").set(1.25);
  M.histogram("h.lat").observe(0.25);
  std::string Json = M.snapshotJson();
  EXPECT_TRUE(json::parse(Json)) << Json;
  // std::map iteration puts a.first before z.last regardless of
  // registration order.
  EXPECT_LT(Json.find("a.first"), Json.find("z.last"));
  EXPECT_NE(Json.find("\"m.mid\": 1.25"), std::string::npos) << Json;
}

TEST(MetricsRegistryTest, SnapshotsAreByteStable) {
  auto Build = [] {
    MetricsRegistry M;
    M.counter("c").add(7);
    M.gauge("g").set(0.123456789);
    M.histogram("h").observe(1.5);
    return M.snapshotJson();
  };
  EXPECT_EQ(Build(), Build());
}

TEST(MetricsRegistryTest, VolatileMetricsExcludedByDefault) {
  MetricsRegistry M;
  M.gauge("sim.host_seconds").set(1.23);
  M.markVolatile("sim.host_seconds");
  M.gauge("sim.virtual_seconds").set(4.0);
  std::string Json = M.snapshotJson();
  EXPECT_EQ(Json.find("host_seconds"), std::string::npos);
  EXPECT_NE(Json.find("virtual_seconds"), std::string::npos);
  std::string All = M.snapshotJson(/*IncludeVolatile=*/true);
  EXPECT_NE(All.find("host_seconds"), std::string::npos);
}

TEST(MetricsRegistryTest, ClearDropsEveryMetric) {
  MetricsRegistry M;
  M.counter("c").add(3);
  M.histogram("h").observe(0.5);
  EXPECT_EQ(M.size(), 2u);
  M.clear();
  EXPECT_EQ(M.size(), 0u);
  EXPECT_FALSE(M.has("c"));
  EXPECT_EQ(M.snapshotJson().find("\"h\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// TelemetryLog + hub
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, RecordersUpdateMetricsAndLogTogether) {
  Telemetry T;
  GovernorDecisionRecord D;
  D.Governor = "GreenWeb-I";
  D.Reason = "predicted";
  D.Config = "A15@1400MHz";
  D.PredictedMs = 12.5;
  D.TargetMs = 16.7;
  T.recordGovernorDecision(D);
  EXPECT_EQ(T.metrics().counter("governor.decisions").value(), 1u);
  ASSERT_EQ(T.log().size(), 1u);
  const TelemetryRecord &R = T.log().records().front();
  EXPECT_EQ(R.Kind, TelemetryEventKind::GovernorDecision);
  EXPECT_EQ(R.as<GovernorDecisionRecord>().Reason, "predicted");
  EXPECT_DOUBLE_EQ(R.as<GovernorDecisionRecord>().PredictedMs, 12.5);
}

TEST(TelemetryTest, DisabledHubRecordsNothing) {
  Telemetry T;
  T.setEnabled(false);
  T.recordConfigSwitch({"A7@350MHz", "A15@1800MHz", 1, 1800, 1, 1, 50.0});
  T.recordEnergySample({0.5, 1.0, 3});
  EXPECT_TRUE(T.log().empty());
  EXPECT_EQ(T.metrics().size(), 0u);
}

TEST(TelemetryTest, LogCapacityCountsDrops) {
  Telemetry T;
  T.setLogCapacity(2);
  for (int I = 0; I < 5; ++I)
    T.recordEnergySample({0.1, double(I), 0});
  EXPECT_EQ(T.log().size(), 2u);
  EXPECT_EQ(T.metrics().counter("telemetry.dropped_records").value(), 3u);
  // Metrics keep updating past the cap.
  EXPECT_EQ(T.metrics().counter("hw.energy_samples").value(), 5u);
}

TEST(TelemetryTest, MetricsOnlyModeKeepsLogEmpty) {
  Telemetry T;
  T.setLogCapacity(0);
  T.recordQosViolation({"EBS", 1, "k", 40.0, 16.7, 0, ""});
  EXPECT_TRUE(T.log().empty());
  EXPECT_EQ(T.metrics().counter("qos.violations").value(), 1u);
}

TEST(TelemetryTest, JsonlExportIsValidAndEscaped) {
  Telemetry T;
  FeedbackActionRecord F;
  F.Governor = "GreenWeb-U";
  F.Action = "step_up";
  F.ModelKey = "7:\"quoted\\key\"";
  F.NewOffset = 1;
  T.recordFeedbackAction(F);
  T.recordFrameStage({3, "layout", 1.75});
  std::string Jsonl = T.log().toJsonl();
  for (std::string_view Line : split(Jsonl, '\n'))
    if (!Line.empty()) {
      std::optional<json::Value> Doc = json::parse(Line);
      EXPECT_TRUE(Doc && Doc->isObject()) << Line;
    }
  EXPECT_NE(Jsonl.find("\"kind\":\"feedback_action\""), std::string::npos);
  EXPECT_NE(Jsonl.find("\"kind\":\"frame_stage\""), std::string::npos);
}

TEST(TelemetryTest, ByKindFiltersInOrder) {
  Telemetry T;
  T.recordEnergySample({0.1, 0.1, 0});
  T.recordFrameStage({1, "style", 1.0});
  T.recordEnergySample({0.2, 0.3, 0});
  auto Samples = T.log().byKind(TelemetryEventKind::EnergySample);
  ASSERT_EQ(Samples.size(), 2u);
  EXPECT_DOUBLE_EQ(Samples[0]->as<EnergySampleRecord>().Watts, 0.1);
  EXPECT_DOUBLE_EQ(Samples[1]->as<EnergySampleRecord>().Watts, 0.2);
}

//===----------------------------------------------------------------------===//
// Simulator integration
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, SimulatorBindsClockAndCountsEvents) {
  Simulator Sim;
  Telemetry T;
  Sim.setTelemetry(&T);
  EXPECT_EQ(Sim.telemetry(), &T);

  Sim.schedule(Duration::milliseconds(5), [&] {
    T.recordFrameStage({1, "style", 0.5});
  });
  Sim.run();

  // The record carries the virtual time of the firing event.
  ASSERT_EQ(T.log().size(), 1u);
  EXPECT_DOUBLE_EQ(T.log().records().front().Ts.millis(), 5.0);

  EXPECT_GE(T.metrics().counter("sim.events_scheduled").value(), 1u);
  EXPECT_GE(T.metrics().counter("sim.events_fired").value(), 1u);
  EXPECT_DOUBLE_EQ(T.metrics().gauge("sim.virtual_seconds").value(),
                   0.005);
  // Host wall time is volatile: recorded, but not in snapshots.
  EXPECT_TRUE(T.metrics().has("sim.host_seconds"));
  EXPECT_EQ(T.metrics().snapshotJson().find("host_seconds"),
            std::string::npos);
}

TEST(TelemetryTest, UnboundClockPinsAtOrigin) {
  Telemetry T;
  T.recordFrameStage({1, "paint", 1.0});
  EXPECT_EQ(T.log().records().front().Ts, TimePoint::origin());
}
