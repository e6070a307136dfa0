//===- tests/telemetry/FlightRecorderTest.cpp - flight recorder tests -----===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/FlightRecorder.h"

#include "telemetry/AnomalyDetector.h"

#include <gtest/gtest.h>

using namespace greenweb;

namespace {

TimePoint at(int64_t Ms) {
  return TimePoint::origin() + Duration::milliseconds(Ms);
}

TelemetryRecord counter(int64_t Ms, int64_t N) {
  return {at(Ms), CounterSampleRecord{"t", double(N)}};
}

TelemetryRecord qosViolation(int64_t Ms) {
  QosViolationRecord V;
  V.Governor = "test";
  V.LatencyMs = 50.0;
  return {at(Ms), V};
}

TelemetryRecord watchdogTrip(int64_t Ms) {
  GovernorDecisionRecord D;
  D.Governor = "GreenWeb-I";
  D.Reason = "watchdog_fallback";
  return {at(Ms), D};
}

TelemetryRecord faultBegin(int64_t Ms) {
  return {at(Ms),
          FaultEventRecord{"thermal_throttle", "begin", "cap 800 MHz", 0.0}};
}

} // namespace

TEST(FlightRecorderTest, RingKeepsMostRecentRecordsOldestFirst) {
  FlightRecorderConfig C;
  C.RingCapacity = 4;
  FlightRecorder R(C);
  for (int64_t I = 0; I < 10; ++I)
    R.onRecord(counter(I, I));
  R.onRecord(faultBegin(10)); // Trigger: snapshot the ring.
  ASSERT_EQ(R.dumps().size(), 1u);
  const BlackBoxDump &D = R.dumps()[0];
  // Last 4 records, oldest first: counters 7, 8, 9, then the fault.
  ASSERT_EQ(D.Records.size(), 4u);
  EXPECT_EQ(D.Records[0].as<CounterSampleRecord>().Value, 7.0);
  EXPECT_EQ(D.Records[1].as<CounterSampleRecord>().Value, 8.0);
  EXPECT_EQ(D.Records[2].as<CounterSampleRecord>().Value, 9.0);
  EXPECT_EQ(D.Records[3].as<FaultEventRecord>().Phase, "begin");
  EXPECT_EQ(D.Trigger, "fault_window");
  EXPECT_EQ(D.Seq, 11u);
}

TEST(FlightRecorderTest, PartialRingDumpsOnlyObservedRecords) {
  FlightRecorder R;
  R.onRecord(counter(0, 0));
  R.onRecord(watchdogTrip(1));
  ASSERT_EQ(R.dumps().size(), 1u);
  EXPECT_EQ(R.dumps()[0].Trigger, "watchdog_trip");
  EXPECT_EQ(R.dumps()[0].Records.size(), 2u);
}

TEST(FlightRecorderTest, QosBurstNeedsCountWithinWindow) {
  FlightRecorderConfig C;
  C.BurstCount = 4;
  C.BurstWindowMs = 100.0;
  FlightRecorder R(C);
  // Spread out: 4 violations across 400 ms never form a burst.
  for (int64_t I = 0; I < 4; ++I)
    R.onRecord(qosViolation(I * 100));
  EXPECT_EQ(R.triggers(), 0u);
  // Dense: 4 violations inside 30 ms trip the burst trigger.
  for (int64_t I = 0; I < 4; ++I)
    R.onRecord(qosViolation(1000 + I * 10));
  EXPECT_EQ(R.triggers(), 1u);
  ASSERT_EQ(R.dumps().size(), 1u);
  EXPECT_EQ(R.dumps()[0].Trigger, "qos_burst");
}

TEST(FlightRecorderTest, CooldownSuppressesBackToBackDumps) {
  FlightRecorderConfig C;
  C.CooldownRecords = 64;
  FlightRecorder R(C);
  R.onRecord(faultBegin(0));
  R.onRecord(faultBegin(1)); // 1 record after the dump: suppressed.
  EXPECT_EQ(R.triggers(), 2u);
  EXPECT_EQ(R.suppressed(), 1u);
  EXPECT_EQ(R.dumps().size(), 1u);
  for (int64_t I = 0; I < 100; ++I)
    R.onRecord(counter(10 + I, I));
  R.onRecord(faultBegin(200)); // Past the cooldown: dumps again.
  EXPECT_EQ(R.dumps().size(), 2u);
}

TEST(FlightRecorderTest, MaxDumpsBoundsMemoryButKeepsCounting) {
  FlightRecorderConfig C;
  C.MaxDumps = 2;
  C.CooldownRecords = 1;
  FlightRecorder R(C);
  for (int64_t I = 0; I < 6; ++I) {
    R.onRecord(faultBegin(I * 100));
    for (int64_t P = 0; P < 4; ++P) // Stay past the cooldown.
      R.onRecord(counter(I * 100 + 1 + P, P));
  }
  EXPECT_EQ(R.dumps().size(), 2u);
  EXPECT_EQ(R.triggers(), 6u);
  EXPECT_EQ(R.dropped(), 4u);
}

TEST(FlightRecorderTest, AlertRecordsTriggerNamedDump) {
  DetectorBank Bank;
  FlightRecorder R;
  // Drive the frame_latency detector through observeTelemetryRecord so
  // the provoked alert lands in the ring and triggers its own dump.
  int64_t Ms = 0;
  for (int I = 0; I < 400; ++I) {
    Ms += 16;
    TelemetryRecord F(at(Ms),
                      FrameStageRecord{I, "total", I < 200 ? 10.0 : 30.0});
    observeTelemetryRecord(F, &R, &Bank);
  }
  ASSERT_GE(Bank.alertsEmitted(), 1u);
  ASSERT_GE(R.dumps().size(), 1u);
  EXPECT_EQ(R.dumps()[0].Trigger, "alert:frame_latency");
  // The alert itself is the newest record in its own dump.
  EXPECT_EQ(R.dumps()[0].Records.back().Kind, TelemetryEventKind::Alert);
}

TEST(FlightRecorderTest, DumpsJsonIsDeterministicAndSelfContained) {
  auto Run = [] {
    FlightRecorderConfig C;
    C.RingCapacity = 8;
    FlightRecorder R(C);
    for (int64_t I = 0; I < 20; ++I)
      R.onRecord(counter(I, I * 3));
    R.onRecord(watchdogTrip(20));
    R.onRecord(faultBegin(21));
    return R.dumpsJson();
  };
  std::string Json = Run();
  EXPECT_EQ(Json, Run());
  EXPECT_NE(Json.find("\"kind\":\"blackbox\""), std::string::npos);
  EXPECT_NE(Json.find("\"trigger\":\"watchdog_trip\""), std::string::npos);
  // Dumped records use the exact JSONL line format.
  EXPECT_NE(Json.find("{\"ts_us\":19000.000,\"kind\":\"counter_sample\""),
            std::string::npos);
}
