//===- telemetry/Telemetry.cpp - Telemetry hub -----------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Telemetry.h"

#include "telemetry/AnomalyDetector.h"
#include "telemetry/FlightRecorder.h"

using namespace greenweb;

namespace {
/// The index of row type \p P in the row variant \p V.
template <class P, class V> struct RowIndex;
template <class P, class... Rows> struct RowIndex<P, std::variant<Rows...>> {
  static constexpr size_t value = [] {
    size_t I = 0;
    ((std::is_same_v<P, Rows> ? false : (++I, true)) && ...);
    return I;
  }();
};
} // namespace

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

template <class P> void Telemetry::appendRecord(const P &Row) {
  if (Bank || Recorder) {
    observeAndAppend(Row);
    return;
  }
  if (Log.size() >= LogCapacity) {
    counter(DroppedCtr, "telemetry.dropped_records").add();
    return;
  }
  Log.append(now(), Row);
}

template <class P> void Telemetry::observeAndAppend(const P &Row) {
  constexpr size_t Index = RowIndex<P, TelemetryPayload>::value;
  if (Scratch.empty())
    Scratch.resize(std::variant_size_v<TelemetryPayload>);
  TelemetryRecord &R = Scratch[Index];
  if (R.Data.index() == Index) {
    R.Ts = now();
    std::get<P>(R.Data) = Row;
  } else {
    R = TelemetryRecord(now(), Row);
  }
  // The ring and the detectors see every record, capped log or not —
  // that is the whole point of the flight recorder. Feed order (record,
  // then its alerts) matches replayObservability exactly, so offline
  // replay of the exported log reproduces alerts and dumps byte for
  // byte.
  std::vector<TelemetryRecord> Alerts =
      observeTelemetryRecord(R, Recorder.get(), Bank.get());
  if (Log.size() < LogCapacity)
    Log.append(R);
  else
    counter(DroppedCtr, "telemetry.dropped_records").add();
  for (TelemetryRecord &A : Alerts) {
    if (AlertsCtr)
      AlertsCtr->add();
    Metrics.counter("telemetry.alerts." + A.as<AlertRecord>().Detector).add();
    // Alerts bypass the capacity cap: rare, and the one thing a
    // metrics-only sweep still records.
    Log.append(std::move(A));
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
      counter(DroppedCtr, "telemetry.dropped_records").add();
      continue;
    }
    Log.append(R);
  }
}

Histogram &Telemetry::stageHistogram(const std::string &Stage) {
  for (const LabeledHandle<Histogram> &H : StageHists)
    if (H.Label == Stage)
      return *H.Metric;
  Histogram &H = Metrics.histogram("browser.stage_" + Stage + "_ms");
  StageHists.push_back({Stage, &H});
  return H;
}

Counter &Telemetry::feedbackCounter(const std::string &Action) {
  for (const LabeledHandle<Counter> &C : FeedbackCtrs)
    if (C.Label == Action)
      return *C.Metric;
  Counter &C = Metrics.counter("governor.feedback_" + Action);
  FeedbackCtrs.push_back({Action, &C});
  return C;
}

void Telemetry::recordGovernorDecision(const GovernorDecisionRecord &R) {
  if (!Enabled)
    return;
  counter(DecisionsCtr, "governor.decisions").add();
  appendRecord(R);
}

void Telemetry::recordFeedbackAction(const FeedbackActionRecord &R) {
  if (!Enabled)
    return;
  feedbackCounter(R.Action).add();
  appendRecord(R);
}

void Telemetry::recordConfigSwitch(const ConfigSwitchRecord &R) {
  if (!Enabled)
    return;
  if (R.FreqChanged)
    counter(FreqSwitchesCtr, "hw.freq_switches").add();
  if (R.Migrated)
    counter(MigrationsCtr, "hw.migrations").add();
  gauge(SwitchPenaltyGauge, "hw.switch_penalty_us_total").add(R.PenaltyUs);
  appendRecord(R);
}

void Telemetry::recordFrameStage(const FrameStageRecord &R) {
  if (!Enabled)
    return;
  stageHistogram(R.Stage).observe(R.DurationMs);
  appendRecord(R);
}

void Telemetry::recordQosViolation(const QosViolationRecord &R) {
  if (!Enabled)
    return;
  counter(ViolationsCtr, "qos.violations").add();
  histogram(OvershootHist, "qos.violation_overshoot_ms")
      .observe(R.LatencyMs - R.TargetMs);
  appendRecord(R);
}

void Telemetry::recordSpan(const SpanTracer::Span &S, bool Truncated) {
  if (!Enabled)
    return;
  counter(SpansCtr, "telemetry.spans").add();
  appendRecord(CompletedSpanRecord{S.Id, S.Parent, S.Root, S.Frame, S.Name,
                                   S.Thread, S.Begin.nanos() / 1e3,
                                   (S.End - S.Begin).millis(),
                                   Truncated ? 1 : 0});
}

void Telemetry::recordEnergySample(const EnergySampleRecord &R) {
  if (!Enabled)
    return;
  counter(EnergySamplesCtr, "hw.energy_samples").add();
  gauge(PowerGauge, "hw.power_watts").set(R.Watts);
  gauge(JoulesGauge, "hw.cumulative_joules").set(R.CumulativeJoules);
  appendRecord(R);
}

void Telemetry::recordFaultEvent(const FaultEventRecord &R) {
  if (!Enabled)
    return;
  Metrics.counter("faults." + R.Fault + "." + R.Phase).add();
  appendRecord(R);
}

void Telemetry::recordCounterSample(const std::string &Track,
                                    double Value) {
  if (!Enabled)
    return;
  Metrics.gauge("counter." + Track).set(Value);
  appendRecord(CounterSampleRecord{Track, Value});
}
