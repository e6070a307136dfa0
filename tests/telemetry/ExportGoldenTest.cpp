//===- tests/telemetry/ExportGoldenTest.cpp - Export byte-parity goldens --===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Pins the exact bytes of the four telemetry exports (event log, Chrome
// trace, black box, metrics snapshot) across commits. Two fixed
// sessions run through the same stack full_evaluation drives; each
// export's FNV-1a digest and byte size must equal the recorded golden.
// The run-metadata header (commit, compiler) is not part of any of the
// four strings, so the goldens hold on any build of the same sources.
//
// A failure here means an export changed shape. If the change is
// deliberate, document it (docs/OBSERVABILITY.md) and re-record the
// goldens from the failure messages.
//
//===----------------------------------------------------------------------===//

#include "browser/Browser.h"
#include "browser/TraceExport.h"
#include "faults/FaultInjector.h"
#include "greenweb/GreenWebRuntime.h"
#include "hw/EnergyMeter.h"
#include "telemetry/FleetReport.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/Telemetry.h"
#include "workloads/Apps.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>

using namespace greenweb;

namespace {

struct Exports {
  std::string Jsonl;
  std::string Trace;
  std::string Blackbox;
  std::string Metrics;
  size_t Injects = 0;
  size_t Feedback = 0;
  size_t Counters = 0;
};

/// One Goo.ne.jp x GreenWeb-I full session at seed 1 with a full hub
/// (detectors, flight recorder, 1 ms meter sampling). With \p Chaos it
/// also runs the "mixed" fault scenario under the watchdog and records
/// a generic counter track, so fault injections, feedback actions and
/// counter samples all reach the exports.
Exports runSession(bool Chaos) {
  const uint64_t Seed = 1;
  AppDefinition App = makeApp("Goo.ne.jp", Seed);
  Simulator Sim;
  std::optional<FaultInjector> Injector;
  Telemetry Tel;
  Tel.enableAnomalyDetectors();
  Tel.enableFlightRecorder();
  Sim.setTelemetry(&Tel);
  AcmpChip Chip(Sim);
  EnergyMeter Meter(Chip);
  Meter.enableSampling(Duration::milliseconds(1));
  ConfigTimelineRecorder Recorder(Chip);
  if (Chaos) {
    Injector.emplace(Sim, *FaultPlan::scenario("mixed", Seed));
    Injector->addWindowListener([&Chip](const FaultSpec &S, bool Began) {
      if (S.Kind == FaultKind::ThermalThrottle && Began)
        Chip.enforceThermalCap();
    });
  }
  Browser B(Sim, Chip);
  AnnotationRegistry Registry;
  GreenWebRuntime::Params Params;
  Params.Scenario = UsageScenario::Imperceptible;
  Params.EnableWatchdog = Chaos;
  GreenWebRuntime Gov(Registry, Params);
  Gov.setEnergyMeter(&Meter);
  B.OnPageParsed = [&] {
    Registry.clear();
    Registry.loadFromPage(B);
  };
  Gov.attach(B);
  B.loadPage(App.Html);
  TimePoint Origin = Sim.now();
  if (Injector)
    Injector->arm(Origin);
  for (const TraceEvent &Event : App.Full.Events)
    Sim.scheduleAt(Origin + Event.At, [&B, Event] {
      B.dispatchInput(Event.Type, Event.TargetId);
    });
  TimePoint End = Origin + App.Full.SessionLength + Duration::seconds(2);
  if (Chaos)
    for (TimePoint T = Origin; T < End; T = T + Duration::milliseconds(250))
      Sim.scheduleAt(T, [&Tel, &Sim] {
        Tel.recordCounterSample("probe \"q\\\"", Sim.now().millis() / 7.0);
      });
  Sim.runUntil(End);
  Meter.recordSampleNow();

  // The order writeTelemetryArtifacts exports in.
  Tel.flushSpans();
  Exports E;
  E.Trace = exportChromeTrace(B.frameTracker().frames(), Recorder.intervals(),
                              Tel);
  E.Jsonl = Tel.log().toJsonl();
  E.Metrics = Tel.metrics().snapshotJson();
  E.Blackbox = Tel.flightRecorder()->dumpsJson();
  for (const TelemetryRecord &R : Tel.log().records()) {
    const FaultEventRecord *F = R.get<FaultEventRecord>();
    E.Injects += F && F->Phase == "inject";
    E.Feedback += R.Kind == TelemetryEventKind::FeedbackAction;
    E.Counters += R.Kind == TelemetryEventKind::CounterSample;
  }
  Gov.detach();
  return E;
}

struct Golden {
  const char *Name;
  size_t Bytes;
  uint64_t Fnv;
};

void expectGolden(const std::string &Text, const Golden &G) {
  uint64_t Fnv = fleetHash(Text);
  char Actual[96];
  std::snprintf(Actual, sizeof(Actual), "{\"%s\", %zu, 0x%016" PRIx64 "ull}",
                G.Name, Text.size(), Fnv);
  EXPECT_EQ(Text.size(), G.Bytes) << "actual " << Actual;
  EXPECT_EQ(Fnv, G.Fnv) << "actual " << Actual;
}

TEST(ExportGoldenTest, FullHubSessionExportsAreByteIdentical) {
  Exports E = runSession(false);
  expectGolden(E.Jsonl, {"jsonl", 1934705, 0xdc8566f09662b9e6ull});
  expectGolden(E.Trace, {"trace", 5728780, 0xa52536070c305e9dull});
  expectGolden(E.Blackbox, {"blackbox", 56041, 0x2e5175adf62e8a44ull});
  expectGolden(E.Metrics, {"metrics", 2356, 0xd47a664e9745f334ull});
}

TEST(ExportGoldenTest, ChaosSessionExportsAreByteIdentical) {
  Exports E = runSession(true);
  // The session must exercise the record kinds the first one lacks.
  EXPECT_GT(E.Injects, 0u);
  EXPECT_GT(E.Feedback, 0u);
  EXPECT_GT(E.Counters, 0u);
  expectGolden(E.Jsonl, {"jsonl", 1377108, 0x034dbe9cf76319f0ull});
  expectGolden(E.Trace, {"trace", 4093215, 0x053719cfae8e161dull});
  expectGolden(E.Blackbox, {"blackbox", 124444, 0xab1c18836d7f12b4ull});
  expectGolden(E.Metrics, {"metrics", 2856, 0xa96f0daeb1a6de5full});
}

TEST(ExportGoldenTest, GoldenLogsRoundTripThroughFromJsonl) {
  // Every line of both golden logs parses back by its kind's schema and
  // re-serializes to the same bytes: the offline tools read exactly the
  // rows the live hub recorded.
  for (bool Chaos : {false, true}) {
    Exports E = runSession(Chaos);
    std::vector<size_t> SkippedAt;
    TelemetryLog Back = TelemetryLog::fromJsonl(E.Jsonl, nullptr, &SkippedAt);
    EXPECT_TRUE(SkippedAt.empty())
        << (Chaos ? "chaos" : "full") << " log: first skipped line "
        << SkippedAt.front();
    EXPECT_EQ(Back.size(),
              size_t(std::count(E.Jsonl.begin(), E.Jsonl.end(), '\n')));
    EXPECT_EQ(Back.toJsonl(), E.Jsonl);
  }
}

} // namespace
