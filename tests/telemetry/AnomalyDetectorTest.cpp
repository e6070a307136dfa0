//===- tests/telemetry/AnomalyDetectorTest.cpp - detector tests -----------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/AnomalyDetector.h"

#include "telemetry/FlightRecorder.h"

#include <gtest/gtest.h>

using namespace greenweb;

namespace {

TimePoint at(int64_t Ms) {
  return TimePoint::origin() + Duration::milliseconds(Ms);
}

TelemetryRecord frameTotal(int64_t Ms, double DurationMs) {
  return {at(Ms), FrameStageRecord{Ms / 16, "total", DurationMs}};
}

TelemetryRecord framePresent(int64_t Ms) {
  return {at(Ms), FrameStageRecord{Ms / 16, "present", 0.1}};
}

TelemetryRecord energySample(int64_t Ms, double Joules) {
  return {at(Ms), EnergySampleRecord{1.5, Joules, 0}};
}

TelemetryRecord decision(int64_t Ms) {
  GovernorDecisionRecord D;
  D.Governor = "test";
  D.Reason = "predicted";
  return {at(Ms), D};
}

} // namespace

TEST(EwmaCusumTest, StationarySeriesNeverFires) {
  EwmaCusum D{DetectorConfig{}};
  for (int I = 0; I < 1000; ++I) {
    // Bounded oscillation around 10 with no sustained shift.
    EwmaCusum::Step S = D.observe(10.0 + (I % 5) * 0.1);
    EXPECT_FALSE(S.Fired) << "fired at sample " << I;
  }
  EXPECT_NEAR(D.mean(), 10.2, 0.3);
}

TEST(EwmaCusumTest, SustainedStepFiresOnceThenRebaselines) {
  EwmaCusum D{DetectorConfig{}};
  for (int I = 0; I < 100; ++I)
    ASSERT_FALSE(D.observe(10.0 + (I % 3) * 0.1).Fired);
  int Fired = 0;
  int64_t Dir = 0;
  for (int I = 0; I < 100; ++I) {
    EwmaCusum::Step S = D.observe(25.0 + (I % 3) * 0.1);
    if (S.Fired) {
      ++Fired;
      Dir = S.Dir;
      EXPECT_GT(S.Score, 0.0);
    }
  }
  // One alert for the shift; the rebaselined detector then treats the
  // new level as normal.
  EXPECT_EQ(Fired, 1);
  EXPECT_EQ(Dir, 1);

  // A downward shift fires with Dir = -1.
  Fired = 0;
  for (int I = 0; I < 100; ++I) {
    EwmaCusum::Step S = D.observe(5.0 + (I % 3) * 0.1);
    if (S.Fired) {
      ++Fired;
      Dir = S.Dir;
    }
  }
  EXPECT_EQ(Fired, 1);
  EXPECT_EQ(Dir, -1);
}

TEST(EwmaCusumTest, WarmupSuppressesEarlyAlerts) {
  DetectorConfig C;
  C.WarmupSamples = 50;
  EwmaCusum D{C};
  // A violent step right after the first sample: still silent through
  // warmup.
  ASSERT_FALSE(D.observe(1.0).Fired);
  for (uint64_t I = 1; I < C.WarmupSamples; ++I)
    EXPECT_FALSE(D.observe(1000.0).Fired) << "fired during warmup at " << I;
}

TEST(DetectorBankTest, FrameLatencyShiftEmitsWellFormedAlert) {
  DetectorBank Bank;
  std::vector<TelemetryRecord> Alerts;
  int64_t Ms = 0;
  for (int I = 0; I < 200; ++I, Ms += 16)
    for (auto &A : Bank.onRecord(frameTotal(Ms, 11.0 + (I % 3) * 0.2)))
      Alerts.push_back(A);
  ASSERT_TRUE(Alerts.empty());
  for (int I = 0; I < 200; ++I, Ms += 16)
    for (auto &A : Bank.onRecord(frameTotal(Ms, 30.0 + (I % 3) * 0.2)))
      Alerts.push_back(A);
  ASSERT_EQ(Alerts.size(), 1u);
  EXPECT_EQ(Bank.alertsEmitted(), 1u);

  EXPECT_EQ(Alerts[0].Kind, TelemetryEventKind::Alert);
  const AlertRecord &A = Alerts[0].as<AlertRecord>();
  EXPECT_EQ(A.Detector, "frame_latency");
  EXPECT_EQ(A.Dir, 1);
  EXPECT_GT(A.Value, 25.0);
  EXPECT_GT(A.Score, 0.0);
  // The alert timestamp is the provoking record's, never a live clock.
  EXPECT_GE(Alerts[0].Ts.nanos(), at(200 * 16).nanos());
}

TEST(DetectorBankTest, EnergyPerFrameNeedsFramesAndTwoSamples) {
  DetectorBank Bank;
  // Energy samples with no frames presented in between derive nothing.
  EXPECT_TRUE(Bank.onRecord(energySample(0, 0.0)).empty());
  EXPECT_TRUE(Bank.onRecord(energySample(100, 1.0)).empty());

  // With frames flowing, a sustained per-frame energy jump alerts.
  std::vector<TelemetryRecord> Alerts;
  double Joules = 1.0;
  int64_t Ms = 100;
  for (int I = 0; I < 400; ++I) {
    Ms += 16;
    Bank.onRecord(framePresent(Ms));
    Joules += I < 200 ? 0.01 : 0.08;
    for (auto &A : Bank.onRecord(energySample(Ms, Joules)))
      Alerts.push_back(A);
  }
  ASSERT_GE(Alerts.size(), 1u);
  EXPECT_EQ(Alerts[0].as<AlertRecord>().Detector, "energy_per_frame");
  EXPECT_EQ(Alerts[0].as<AlertRecord>().Dir, 1);
}

TEST(DetectorBankTest, DecisionChurnCountsTrailingWindow) {
  DetectorBank Bank;
  std::vector<TelemetryRecord> Alerts;
  // Calm regime: one decision every 200 ms (window holds ~1).
  int64_t Ms = 0;
  for (int I = 0; I < 100; ++I, Ms += 200)
    for (auto &A : Bank.onRecord(decision(Ms)))
      Alerts.push_back(A);
  ASSERT_TRUE(Alerts.empty());
  // Thrash: decisions every 10 ms pile up inside the 250 ms window.
  for (int I = 0; I < 200; ++I, Ms += 10)
    for (auto &A : Bank.onRecord(decision(Ms)))
      Alerts.push_back(A);
  ASSERT_GE(Alerts.size(), 1u);
  EXPECT_EQ(Alerts[0].as<AlertRecord>().Detector, "decision_churn");
  EXPECT_EQ(Alerts[0].as<AlertRecord>().Dir, 1);
}

TEST(DetectorBankTest, IgnoresAlertRecords) {
  DetectorBank Bank;
  AlertRecord Row;
  Row.Detector = "frame_latency";
  Row.Value = 1.0;
  TelemetryRecord A(at(0), Row);
  // A bank fed a stream containing its own output must not feed back.
  for (int I = 0; I < 100; ++I)
    EXPECT_TRUE(Bank.onRecord(A).empty());
  EXPECT_EQ(Bank.alertsEmitted(), 0u);
}

TEST(DetectorBankTest, IdenticalStreamsYieldByteIdenticalAlerts) {
  auto Run = [] {
    DetectorBank Bank;
    std::string Serialized;
    int64_t Ms = 0;
    double Joules = 0.0;
    for (int I = 0; I < 600; ++I) {
      Ms += 16;
      double Lat = I < 300 ? 11.0 + (I % 7) * 0.3 : 24.0 + (I % 7) * 0.3;
      Bank.onRecord(framePresent(Ms));
      for (auto &A : Bank.onRecord(frameTotal(Ms, Lat)))
        Serialized += telemetryRecordJson(A) + "\n";
      Joules += Lat * 1e-3;
      if (I % 16 == 0)
        for (auto &A : Bank.onRecord(energySample(Ms, Joules)))
          Serialized += telemetryRecordJson(A) + "\n";
      if (I % 4 == 0)
        for (auto &A : Bank.onRecord(decision(Ms)))
          Serialized += telemetryRecordJson(A) + "\n";
    }
    return Serialized;
  };
  std::string First = Run();
  EXPECT_FALSE(First.empty());
  EXPECT_EQ(First, Run());
}

TEST(ReplayTest, OfflineReplayReproducesOnlineAlerts) {
  // Build the "online" log: records plus the alerts they provoked, in
  // feed order, as the Telemetry hub appends them.
  DetectorBank Online;
  TelemetryLog Log;
  std::vector<std::string> OnlineAlerts;
  int64_t Ms = 0;
  for (int I = 0; I < 500; ++I) {
    Ms += 16;
    double Lat = I < 250 ? 10.0 + (I % 5) * 0.2 : 28.0 + (I % 5) * 0.2;
    TelemetryRecord R = frameTotal(Ms, Lat);
    std::vector<TelemetryRecord> Alerts = Online.onRecord(R);
    Log.append(std::move(R));
    for (TelemetryRecord &A : Alerts) {
      OnlineAlerts.push_back(telemetryRecordJson(A));
      Log.append(std::move(A));
    }
  }
  ASSERT_FALSE(OnlineAlerts.empty());

  // Round-trip through JSONL, then replay with a fresh bank: the
  // regenerated alert stream must match byte-for-byte.
  TelemetryLog Parsed = TelemetryLog::fromJsonl(Log.toJsonl());
  DetectorBank Offline;
  std::vector<TelemetryRecord> Replayed =
      replayObservability(Parsed, Offline, nullptr);
  ASSERT_EQ(Replayed.size(), OnlineAlerts.size());
  for (size_t I = 0; I < Replayed.size(); ++I)
    EXPECT_EQ(telemetryRecordJson(Replayed[I]), OnlineAlerts[I]);
}
