//===- telemetry/Telemetry.cpp - Telemetry hub -----------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Telemetry.h"

#include "telemetry/AnomalyDetector.h"
#include "telemetry/FlightRecorder.h"

using namespace greenweb;

Telemetry::Telemetry() = default;

Telemetry::Telemetry(ClockFn Clock) : Clock(std::move(Clock)) {}

Telemetry::~Telemetry() = default;

void Telemetry::enableAnomalyDetectors() {
  enableAnomalyDetectors(DetectorConfig{});
}

void Telemetry::enableAnomalyDetectors(const DetectorConfig &C) {
  Bank = std::make_unique<DetectorBank>(C);
  AlertsCtr = &Metrics.counter("telemetry.alerts");
}

void Telemetry::enableFlightRecorder() {
  enableFlightRecorder(FlightRecorderConfig{});
}

void Telemetry::enableFlightRecorder(const FlightRecorderConfig &C) {
  Recorder = std::make_unique<FlightRecorder>(C);
}

void Telemetry::appendRecord(TelemetryEventKind Kind,
                             std::vector<TelemetryField> Fields) {
  if (Bank || Recorder) {
    observeAndAppend(Kind, std::move(Fields));
    return;
  }
  if (Log.size() >= LogCapacity) {
    Metrics.counter("telemetry.dropped_records").add();
    return;
  }
  Log.append(Kind, now(), std::move(Fields));
}

void Telemetry::observeAndAppend(TelemetryEventKind Kind,
                                 std::vector<TelemetryField> Fields) {
  TelemetryRecord R{Kind, now(), std::move(Fields)};
  // The ring and the detectors see every record, capped log or not —
  // that is the whole point of the flight recorder. Feed order (record,
  // then its alerts) matches replayObservability exactly, so offline
  // replay of the exported log reproduces alerts and dumps byte for
  // byte.
  std::vector<TelemetryRecord> Alerts =
      observeTelemetryRecord(R, Recorder.get(), Bank.get());
  if (Log.size() < LogCapacity)
    Log.append(R.Kind, R.Ts, std::move(R.Fields));
  else
    Metrics.counter("telemetry.dropped_records").add();
  for (TelemetryRecord &A : Alerts) {
    if (AlertsCtr)
      AlertsCtr->add();
    Metrics.counter("telemetry.alerts." + A.stringOr("detector", "?"))
        .add();
    // Alerts bypass the capacity cap: rare, and the one thing a
    // metrics-only sweep still records.
    Log.append(A.Kind, A.Ts, std::move(A.Fields));
  }
}

void Telemetry::mergeLogFrom(const TelemetryLog &Other) {
  for (const TelemetryRecord &R : Other.records()) {
    // Mirror the live append paths: Alerts always land (the bypass is
    // their whole contract — see observeAndAppend); everything else is
    // subject to this hub's capacity, with drops counted. Appended
    // alerts grow Log.size() and so count against later capacity
    // checks, exactly as live.
    if (R.Kind != TelemetryEventKind::Alert && Log.size() >= LogCapacity) {
      Metrics.counter("telemetry.dropped_records").add();
      continue;
    }
    Log.append(R.Kind, R.Ts, R.Fields);
  }
}

void Telemetry::recordGovernorDecision(const GovernorDecisionRecord &R) {
  if (!Enabled)
    return;
  Metrics.counter("governor.decisions").add();
  appendRecord(TelemetryEventKind::GovernorDecision,
               {{"governor", R.Governor},
                {"reason", R.Reason},
                {"config", R.Config},
                {"big", R.CoreIsBig},
                {"freq_mhz", R.FreqMHz},
                {"root", R.RootId},
                {"key", R.ModelKey},
                {"predicted_ms", R.PredictedMs},
                {"target_ms", R.TargetMs},
                {"offset", R.FeedbackOffset}});
}

void Telemetry::recordFeedbackAction(const FeedbackActionRecord &R) {
  if (!Enabled)
    return;
  Metrics.counter("governor.feedback_" + R.Action).add();
  appendRecord(TelemetryEventKind::FeedbackAction,
               {{"governor", R.Governor},
                {"action", R.Action},
                {"key", R.ModelKey},
                {"offset", R.NewOffset},
                {"measured_ms", R.MeasuredMs},
                {"predicted_ms", R.PredictedMs},
                {"target_ms", R.TargetMs}});
}

void Telemetry::recordConfigSwitch(const ConfigSwitchRecord &R) {
  if (!Enabled)
    return;
  if (R.FreqChanged)
    Metrics.counter("hw.freq_switches").add();
  if (R.Migrated)
    Metrics.counter("hw.migrations").add();
  Metrics.gauge("hw.switch_penalty_us_total").add(R.PenaltyUs);
  appendRecord(TelemetryEventKind::ConfigSwitch,
               {{"from", R.FromConfig},
                {"to", R.ToConfig},
                {"big", R.ToCoreIsBig},
                {"freq_mhz", R.ToFreqMHz},
                {"freq_changed", R.FreqChanged},
                {"migrated", R.Migrated},
                {"penalty_us", R.PenaltyUs}});
}

void Telemetry::recordFrameStage(const FrameStageRecord &R) {
  if (!Enabled)
    return;
  Metrics.histogram("browser.stage_" + R.Stage + "_ms").observe(R.DurationMs);
  // Hot per-frame path: build fields in place instead of copying an
  // initializer list of string-carrying variants.
  std::vector<TelemetryField> Fields;
  Fields.reserve(3);
  Fields.push_back({"frame", R.FrameId});
  Fields.push_back({"stage", R.Stage});
  Fields.push_back({"duration_ms", R.DurationMs});
  appendRecord(TelemetryEventKind::FrameStage, std::move(Fields));
}

void Telemetry::recordQosViolation(const QosViolationRecord &R) {
  if (!Enabled)
    return;
  Metrics.counter("qos.violations").add();
  Metrics.histogram("qos.violation_overshoot_ms")
      .observe(R.LatencyMs - R.TargetMs);
  appendRecord(TelemetryEventKind::QosViolation,
               {{"governor", R.Governor},
                {"root", R.RootId},
                {"key", R.ModelKey},
                {"latency_ms", R.LatencyMs},
                {"target_ms", R.TargetMs},
                {"frame", R.FrameId},
                {"qos", R.QosKind}});
}

void Telemetry::recordSpan(const SpanTracer::Span &S, bool Truncated) {
  if (!Enabled)
    return;
  Metrics.counter("telemetry.spans").add();
  // Hot path: one record per completed span.
  std::vector<TelemetryField> Fields;
  Fields.reserve(9);
  Fields.push_back({"id", S.Id});
  Fields.push_back({"parent", S.Parent});
  Fields.push_back({"root", S.Root});
  Fields.push_back({"frame", S.Frame});
  Fields.push_back({"name", S.Name});
  Fields.push_back({"thread", S.Thread});
  Fields.push_back({"begin_us", S.Begin.nanos() / 1e3});
  Fields.push_back({"dur_ms", (S.End - S.Begin).millis()});
  Fields.push_back({"open", int64_t(Truncated ? 1 : 0)});
  appendRecord(TelemetryEventKind::Span, std::move(Fields));
}

void Telemetry::recordEnergySample(const EnergySampleRecord &R) {
  if (!Enabled)
    return;
  Metrics.counter("hw.energy_samples").add();
  Metrics.gauge("hw.power_watts").set(R.Watts);
  Metrics.gauge("hw.cumulative_joules").set(R.CumulativeJoules);
  appendRecord(TelemetryEventKind::EnergySample,
               {{"watts", R.Watts},
                {"joules", R.CumulativeJoules},
                {"queue_depth", R.QueueDepth}});
}

void Telemetry::recordFaultEvent(const FaultEventRecord &R) {
  if (!Enabled)
    return;
  Metrics.counter("faults." + R.Fault + "." + R.Phase).add();
  appendRecord(TelemetryEventKind::Fault,
               {{"fault", R.Fault},
                {"phase", R.Phase},
                {"detail", R.Detail},
                {"value", R.Value}});
}

void Telemetry::recordCounterSample(const std::string &Track,
                                    double Value) {
  if (!Enabled)
    return;
  Metrics.gauge("counter." + Track).set(Value);
  appendRecord(TelemetryEventKind::CounterSample,
               {{"track", Track}, {"value", Value}});
}
