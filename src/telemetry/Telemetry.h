//===- telemetry/Telemetry.h - Telemetry hub --------------------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry hub: one MetricsRegistry plus one TelemetryLog behind
/// typed recorder methods, bound to the simulator's virtual clock. The
/// hub is *opt-in*: nothing in the system owns one; an experiment or
/// example constructs it, attaches it to a Simulator (which hands the
/// pointer to every producer), and exports after the run. Producers
/// guard every record with a null-pointer + enabled() check, so the
/// disabled cost is one branch.
///
/// Recorders update the canonical metrics *and* append a log record in
/// one call, which keeps producers to a single line per event and
/// guarantees the registry and the log never disagree. Log appends can
/// be capped (setLogCapacity) for long bench sweeps that only want the
/// aggregate metrics; dropped records are themselves counted.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_TELEMETRY_TELEMETRY_H
#define GREENWEB_TELEMETRY_TELEMETRY_H

#include "telemetry/MetricsRegistry.h"
#include "telemetry/SpanTracer.h"
#include "telemetry/TelemetryLog.h"

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace greenweb {

class DetectorBank;
class FlightRecorder;
struct DetectorConfig;
struct FlightRecorderConfig;

/// The telemetry hub; see file comment.
class Telemetry {
public:
  using ClockFn = std::function<TimePoint()>;

  /// Constructs with the clock pinned at the origin; attach to a
  /// Simulator (Simulator::setTelemetry) to follow virtual time.
  Telemetry();
  explicit Telemetry(ClockFn Clock);
  ~Telemetry();
  // Non-copyable: the span tracer back-references the hub.
  Telemetry(const Telemetry &) = delete;
  Telemetry &operator=(const Telemetry &) = delete;

  /// Rebinds the timestamp source. Simulator::setTelemetry calls this;
  /// the previous clock must not be dangling while producers record.
  void setClock(ClockFn NewClock) { Clock = std::move(NewClock); }

  /// Master switch: when false every recorder returns immediately.
  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }

  /// Caps the log at \p MaxRecords appended records (metrics keep
  /// updating); 0 keeps metrics only. Default: unlimited. Capacity 0
  /// also turns span tracing off — a metrics-only sweep must not grow
  /// an unbounded span vector either.
  void setLogCapacity(size_t MaxRecords) {
    LogCapacity = MaxRecords;
    if (MaxRecords == 0)
      Spans.setTracingEnabled(false);
  }

  /// Current virtual time per the bound clock (origin when unbound).
  TimePoint now() const { return Clock ? Clock() : TimePoint::origin(); }

  MetricsRegistry &metrics() { return Metrics; }
  const MetricsRegistry &metrics() const { return Metrics; }
  TelemetryLog &log() { return Log; }
  const TelemetryLog &log() const { return Log; }
  SpanTracer &spans() { return Spans; }
  const SpanTracer &spans() const { return Spans; }

  /// Force-closes all open spans (SpanTracer::finishAll); call before
  /// exporting so in-flight work reaches the artifacts.
  void flushSpans() { Spans.finishAll(); }

  /// Re-appends another log into this hub with *live* append semantics:
  /// non-Alert records respect this hub's log capacity (drops counted in
  /// telemetry.dropped_records), Alert records keep their capacity
  /// bypass. ParallelRunner uses this for the config-order merge so a
  /// capacity-limited shared hub treats merged records exactly as it
  /// would have treated them recorded directly.
  void mergeLogFrom(const TelemetryLog &Other);

  /// --- Online observability (off by default; see FlightRecorder.h) ---
  ///
  /// Attaches the EWMA/CUSUM anomaly detectors: every record flows
  /// through the bank and resulting Alert records are appended to the
  /// log as first-class events. Alerts bypass the log capacity cap —
  /// they are rare and are exactly what a metrics-only sweep still
  /// wants to keep.
  void enableAnomalyDetectors();
  void enableAnomalyDetectors(const DetectorConfig &C);
  /// Attaches the flight recorder: a ring of recent records snapshotted
  /// into black-box dumps on trigger (QoS burst, watchdog trip, fault
  /// window, detector alert).
  void enableFlightRecorder();
  void enableFlightRecorder(const FlightRecorderConfig &C);
  /// Null when the corresponding enable* was never called.
  DetectorBank *detectors() { return Bank.get(); }
  const DetectorBank *detectors() const { return Bank.get(); }
  FlightRecorder *flightRecorder() { return Recorder.get(); }
  const FlightRecorder *flightRecorder() const { return Recorder.get(); }

  /// --- Typed recorders (no-ops when disabled) ---
  void recordGovernorDecision(const GovernorDecisionRecord &R);
  void recordFeedbackAction(const FeedbackActionRecord &R);
  void recordConfigSwitch(const ConfigSwitchRecord &R);
  void recordFrameStage(const FrameStageRecord &R);
  void recordQosViolation(const QosViolationRecord &R);
  void recordEnergySample(const EnergySampleRecord &R);
  void recordFaultEvent(const FaultEventRecord &R);
  /// Generic time-series point for an extra trace counter track.
  void recordCounterSample(const std::string &Track, double Value);

private:
  friend class SpanTracer;

  /// Appends \p Row within the log cap and counts drops otherwise. With
  /// the observability layer attached the record (and any alerts it
  /// provokes) also flows through the recorder ring and detector bank.
  template <class P> void appendRecord(const P &Row);

  /// Slow path of appendRecord when detectors / recorder are attached.
  template <class P> void observeAndAppend(const P &Row);

  /// Mirrors a completed span into the metrics + log (SpanTracer only).
  void recordSpan(const SpanTracer::Span &S, bool Truncated);

  /// The metric named \p Name, looked up on first use only: a hub that
  /// never records a kind keeps that kind's metrics out of its snapshot.
  /// The registry's map nodes never move, so a handle stays valid as
  /// long as nothing calls metrics().clear() on this hub.
  Counter &counter(Counter *&Handle, std::string_view Name) {
    return Handle ? *Handle : *(Handle = &Metrics.counter(Name));
  }
  Gauge &gauge(Gauge *&Handle, std::string_view Name) {
    return Handle ? *Handle : *(Handle = &Metrics.gauge(Name));
  }
  Histogram &histogram(Histogram *&Handle, std::string_view Name) {
    return Handle ? *Handle : *(Handle = &Metrics.histogram(Name));
  }

  /// A metric whose name depends on a record's short label (a frame
  /// stage, a feedback action), resolved once per label.
  template <class M> struct LabeledHandle {
    std::string Label;
    M *Metric;
  };
  Histogram &stageHistogram(const std::string &Stage);
  Counter &feedbackCounter(const std::string &Action);

  ClockFn Clock;
  bool Enabled = true;
  size_t LogCapacity = std::numeric_limits<size_t>::max();
  MetricsRegistry Metrics;
  TelemetryLog Log;
  SpanTracer Spans{this};
  std::unique_ptr<DetectorBank> Bank;
  std::unique_ptr<FlightRecorder> Recorder;
  /// One record per row type for the observed path, reused so feeding
  /// the ring and detectors copies into existing string capacity.
  std::vector<TelemetryRecord> Scratch;

  // Fixed metric handles (see counter()).
  Counter *AlertsCtr = nullptr;
  Counter *DroppedCtr = nullptr;
  Counter *DecisionsCtr = nullptr;
  Counter *FreqSwitchesCtr = nullptr;
  Counter *MigrationsCtr = nullptr;
  Gauge *SwitchPenaltyGauge = nullptr;
  Counter *ViolationsCtr = nullptr;
  Histogram *OvershootHist = nullptr;
  Counter *SpansCtr = nullptr;
  Counter *EnergySamplesCtr = nullptr;
  Gauge *PowerGauge = nullptr;
  Gauge *JoulesGauge = nullptr;
  std::vector<LabeledHandle<Histogram>> StageHists;
  std::vector<LabeledHandle<Counter>> FeedbackCtrs;
};

} // namespace greenweb

#endif // GREENWEB_TELEMETRY_TELEMETRY_H
