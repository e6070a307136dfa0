//===- tests/browser/TraceExportTest.cpp - tracing export tests ----------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "browser/TraceExport.h"

#include "browser/Browser.h"
#include "support/Json.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

using namespace greenweb;

TEST(TraceExportTest, EmptyTraceIsValidJson) {
  std::string Json = exportChromeTrace({});
  EXPECT_EQ(Json, "[]\n");
}

TEST(TraceExportTest, FrameEventsEmitted) {
  FrameTracker Tracker;
  TimePoint T0 = TimePoint::origin() + Duration::milliseconds(100);
  FrameMsg Msg = Tracker.makeMsg(T0, 0, "click");
  FrameRecord Frame = Tracker.finishFrame(
      7, T0 + Duration::fromMillis(16.7), T0 + Duration::milliseconds(25),
      {Msg}, 4e6, Duration::milliseconds(1));
  std::string Json = exportChromeTrace({Frame});
  EXPECT_NE(Json.find("\"frame 7\""), std::string::npos);
  EXPECT_NE(Json.find("\"tid\":\"frames\""), std::string::npos);
  EXPECT_NE(Json.find("\"tid\":\"inputs\""), std::string::npos);
  EXPECT_NE(Json.find("click#"), std::string::npos);
  // ts is microseconds: BeginTime 116.7ms -> 116700us.
  EXPECT_NE(Json.find("\"ts\":116700.000"), std::string::npos);
}

TEST(TraceExportTest, CpuIntervalsEmitted) {
  std::vector<ConfigInterval> Cpu = {
      {{CoreKind::Little, 350}, TimePoint::origin(),
       TimePoint::origin() + Duration::milliseconds(10)},
      {{CoreKind::Big, 1800},
       TimePoint::origin() + Duration::milliseconds(10),
       TimePoint::origin() + Duration::milliseconds(30)}};
  std::string Json = exportChromeTrace({}, Cpu);
  EXPECT_NE(Json.find("A7@350MHz"), std::string::npos);
  EXPECT_NE(Json.find("A15@1800MHz"), std::string::npos);
  EXPECT_NE(Json.find("\"tid\":\"cpu\""), std::string::npos);
}

TEST(TraceExportTest, ConfigTimelineRecordsChangesAtExactInstants) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  ConfigTimelineRecorder Recorder(Chip);
  Sim.schedule(Duration::milliseconds(10),
               [&] { Chip.setConfig({CoreKind::Big, 1800}); });
  Sim.schedule(Duration::milliseconds(25),
               [&] { Chip.setConfig({CoreKind::Little, 600}); });
  Sim.schedule(Duration::milliseconds(40), [] {});
  Sim.run();

  std::vector<ConfigInterval> Intervals = Recorder.intervals();
  ASSERT_EQ(Intervals.size(), 3u);
  EXPECT_EQ(Intervals[0].Config, (AcmpConfig{CoreKind::Little, 350}));
  EXPECT_DOUBLE_EQ(Intervals[0].Begin.millis(), 0.0);
  EXPECT_DOUBLE_EQ(Intervals[0].End.millis(), 10.0);
  EXPECT_EQ(Intervals[1].Config, (AcmpConfig{CoreKind::Big, 1800}));
  EXPECT_DOUBLE_EQ(Intervals[1].End.millis(), 25.0);
  EXPECT_EQ(Intervals[2].Config, (AcmpConfig{CoreKind::Little, 600}));
  EXPECT_DOUBLE_EQ(Intervals[2].End.millis(), 40.0);

  // Intervals tile the timeline: contiguous and gap-free.
  for (size_t I = 1; I < Intervals.size(); ++I)
    EXPECT_EQ(Intervals[I].Begin, Intervals[I - 1].End);
}

TEST(TraceExportTest, ZeroLengthConfigIntervalStaysValid) {
  TimePoint T = TimePoint::origin() + Duration::milliseconds(5);
  std::vector<ConfigInterval> Cpu = {{{CoreKind::Big, 1800}, T, T}};
  std::string Json = exportChromeTrace({}, Cpu);
  EXPECT_TRUE(json::parse(Json)) << Json;
  EXPECT_NE(Json.find("\"dur\":0.000"), std::string::npos);
}

TEST(TraceExportTest, SameInstantConfigChangesCollapse) {
  // Two setConfig calls at the same virtual timestamp: the intermediate
  // configuration exists for zero time; the recorded timeline must stay
  // contiguous and end on the last configuration.
  Simulator Sim;
  AcmpChip Chip(Sim);
  ConfigTimelineRecorder Recorder(Chip);
  Sim.schedule(Duration::milliseconds(10), [&] {
    Chip.setConfig({CoreKind::Big, 1400});
    Chip.setConfig({CoreKind::Big, 1800});
  });
  Sim.schedule(Duration::milliseconds(20), [] {});
  Sim.run();

  std::vector<ConfigInterval> Intervals = Recorder.intervals();
  ASSERT_GE(Intervals.size(), 2u);
  for (size_t I = 1; I < Intervals.size(); ++I)
    EXPECT_EQ(Intervals[I].Begin, Intervals[I - 1].End);
  for (const ConfigInterval &Interval : Intervals)
    EXPECT_GE(Interval.End, Interval.Begin);
  EXPECT_EQ(Intervals.back().Config, (AcmpConfig{CoreKind::Big, 1800}));
  EXPECT_DOUBLE_EQ(Intervals.back().End.millis(), 20.0);
  EXPECT_DOUBLE_EQ(Intervals.front().End.millis(), 10.0);
  EXPECT_TRUE(json::parse(exportChromeTrace({}, Intervals)));
}

TEST(TraceExportTest, EnrichedExportWithEmptyTelemetryMatchesBase) {
  Telemetry Tel;
  EXPECT_EQ(exportChromeTrace({}, {}, Tel), exportChromeTrace({}, {}));
}

TEST(TraceExportTest, EnrichedExportEmitsCounterAndInstantEvents) {
  Telemetry Tel;
  Tel.recordEnergySample({0.75, 1.5, 4});
  Tel.recordConfigSwitch({"A7@350MHz", "A15@1800MHz", 1, 1800, 1, 1, 50.0});
  Tel.recordConfigSwitch({"A15@1800MHz", "A7@600MHz", 0, 600, 1, 1, 50.0});
  GovernorDecisionRecord D;
  D.Governor = "GreenWeb-I";
  D.Reason = "predicted";
  D.Config = "A15@1400MHz";
  D.PredictedMs = 12.0;
  D.TargetMs = 16.7;
  Tel.recordGovernorDecision(D);
  FeedbackActionRecord F;
  F.Governor = "GreenWeb-I";
  F.Action = "step_up";
  Tel.recordFeedbackAction(F);

  std::string Json = exportChromeTrace({}, {}, Tel);
  EXPECT_TRUE(json::parse(Json)) << Json;
  EXPECT_NE(Json.find("\"name\":\"power_watts\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"energy_joules\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"sim_queue_depth\""), std::string::npos);
  // Migration visible as the series trading places.
  EXPECT_NE(Json.find("{\"A15\":1800,\"A7\":0}"), std::string::npos);
  EXPECT_NE(Json.find("{\"A15\":0,\"A7\":600}"), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"GreenWeb-I: predicted\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"GreenWeb-I feedback: step_up\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"tid\":\"governor\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(TraceExportTest, ExportedJsonSurvivesParseBack) {
  FrameTracker Tracker;
  TimePoint T0 = TimePoint::origin() + Duration::milliseconds(10);
  // An event name with characters that need escaping.
  FrameMsg Msg = Tracker.makeMsg(T0, 0, "we\"ird\\evt");
  FrameRecord Frame = Tracker.finishFrame(
      1, T0, T0 + Duration::milliseconds(5), {Msg}, 1e6,
      Duration::milliseconds(1));
  std::vector<ConfigInterval> Cpu = {
      {{CoreKind::Little, 350}, TimePoint::origin(), T0}};
  Telemetry Tel;
  Tel.recordCounterSample("custom_track", 2.5);
  std::string Json = exportChromeTrace({Frame}, Cpu, Tel);
  EXPECT_TRUE(json::parse(Json)) << Json;
  EXPECT_NE(Json.find("\"name\":\"custom_track\""), std::string::npos);
}

TEST(TraceExportTest, EndToEndSessionExports) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  Chip.setConfig(Chip.spec().maxConfig());
  ConfigTimelineRecorder Recorder(Chip);
  Browser B(Sim, Chip);
  B.loadPage(R"raw(
    <div id=b onclick="document.getElementById('b').style.r = now()"></div>
  )raw");
  Sim.runUntil(Sim.now() + Duration::seconds(1));
  B.dispatchInput("click", "b");
  Sim.runUntil(Sim.now() + Duration::seconds(1));

  std::string Json = exportChromeTrace(B.frameTracker().frames(),
                                       Recorder.intervals());
  // Structural sanity: array-shaped, balanced braces, both tracks.
  EXPECT_EQ(Json.front(), '[');
  EXPECT_EQ(Json[Json.size() - 2], ']');
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '{'),
            std::count(Json.begin(), Json.end(), '}'));
  EXPECT_NE(Json.find("\"tid\":\"frames\""), std::string::npos);
  EXPECT_NE(Json.find("\"tid\":\"cpu\""), std::string::npos);
  EXPECT_NE(Json.find("load#"), std::string::npos);
}
