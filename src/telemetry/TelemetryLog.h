//===- telemetry/TelemetryLog.h - Structured event log ----------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured event log: an append-only sequence of typed,
/// virtual-clock-timestamped records — governor decisions, feedback
/// actions, DVFS switches, pipeline-stage durations, QoS violations, and
/// energy samples. Each record kind is a struct, and each struct
/// declares its JSONL schema once (schema(): key, member, and so int,
/// double or string). That one table drives the serializer, the strict
/// parser (fromJsonl) and the test oracle, so they cannot disagree.
///
/// Because every timestamp comes from the simulator's virtual clock and
/// field order is fixed by the schema, a log of a fixed-seed run is
/// byte-for-bit reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_TELEMETRY_TELEMETRYLOG_H
#define GREENWEB_TELEMETRY_TELEMETRYLOG_H

#include "support/Time.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <variant>
#include <vector>

namespace greenweb {

/// Record types the telemetry layer knows about.
enum class TelemetryEventKind : uint8_t {
  GovernorDecision, ///< A policy chose a chip configuration.
  FeedbackAction,   ///< Step-up / step-down / recalibrate on feedback.
  ConfigSwitch,     ///< The chip changed configuration (DVFS/migration).
  FrameStage,       ///< One pipeline stage of one frame completed.
  QosViolation,     ///< A frame missed its active QoS target.
  EnergySample,     ///< Periodic (DAQ-style) power/energy reading.
  CounterSample,    ///< Generic time-series point for trace counters.
  Span,             ///< A completed causal span (see SpanTracer).
  Fault,            ///< A fault window opened/closed or an injection landed.
  Alert,            ///< An online anomaly detector fired (see AnomalyDetector).
  Sched,            ///< Parallel-sweep scheduler event (see SchedTrace).
};

/// Stable lowercase name used in serialized output.
const char *telemetryEventKindName(TelemetryEventKind Kind);

/// Reverse of telemetryEventKindName; false for unknown names.
bool telemetryEventKindFromName(std::string_view Name,
                                TelemetryEventKind &Out);

/// One JSONL member of a record kind: its key and the payload member it
/// carries. T is int64_t (written as an integer), double (written as
/// "%.6f" with trailing zeros trimmed) or std::string (escaped).
template <class P, class T> struct SchemaField {
  std::string_view Key;
  T P::*Member;
};

/// A member whose value is fixed by the row type, written before the
/// others: the two sched rows carry "event":"item" or "event":"batch".
struct SchemaTag {
  std::string_view Key;
  std::string_view Value;
};

/// A policy's configuration choice. Configurations travel as their
/// display label plus raw core/frequency numbers so the telemetry layer
/// stays below the hardware model in the dependency order.
struct GovernorDecisionRecord {
  std::string Governor;   ///< Policy name ("GreenWeb-I", "Interactive"...)
  std::string Reason;     ///< "predicted", "profile_max", "utilization"...
  std::string Config;     ///< Chosen configuration label ("A15@1800MHz").
  int64_t CoreIsBig = 0;  ///< 1 when the chosen cluster is the big one.
  int64_t FreqMHz = 0;    ///< Chosen frequency.
  int64_t RootId = 0;     ///< Originating input event (0 = none).
  std::string ModelKey;   ///< Per-(element,event) model key, if any.
  double PredictedMs = -1.0; ///< Predicted latency at Config (<0 = n/a).
  double TargetMs = -1.0;    ///< Active QoS target (<0 = n/a).
  int64_t FeedbackOffset = 0;

  static constexpr TelemetryEventKind Kind =
      TelemetryEventKind::GovernorDecision;
  static constexpr auto schema() {
    using R = GovernorDecisionRecord;
    return std::make_tuple(SchemaField{"governor", &R::Governor},
                           SchemaField{"reason", &R::Reason},
                           SchemaField{"config", &R::Config},
                           SchemaField{"big", &R::CoreIsBig},
                           SchemaField{"freq_mhz", &R::FreqMHz},
                           SchemaField{"root", &R::RootId},
                           SchemaField{"key", &R::ModelKey},
                           SchemaField{"predicted_ms", &R::PredictedMs},
                           SchemaField{"target_ms", &R::TargetMs},
                           SchemaField{"offset", &R::FeedbackOffset});
  }
};

/// A feedback correction on measured latency.
struct FeedbackActionRecord {
  std::string Governor;
  std::string Action; ///< "step_up", "step_down", "recalibrate".
  std::string ModelKey;
  int64_t NewOffset = 0;
  double MeasuredMs = -1.0;
  double PredictedMs = -1.0;
  double TargetMs = -1.0;

  static constexpr TelemetryEventKind Kind =
      TelemetryEventKind::FeedbackAction;
  static constexpr auto schema() {
    using R = FeedbackActionRecord;
    return std::make_tuple(SchemaField{"governor", &R::Governor},
                           SchemaField{"action", &R::Action},
                           SchemaField{"key", &R::ModelKey},
                           SchemaField{"offset", &R::NewOffset},
                           SchemaField{"measured_ms", &R::MeasuredMs},
                           SchemaField{"predicted_ms", &R::PredictedMs},
                           SchemaField{"target_ms", &R::TargetMs});
  }
};

/// The chip executed a configuration change.
struct ConfigSwitchRecord {
  std::string FromConfig;
  std::string ToConfig;
  int64_t ToCoreIsBig = 0;
  int64_t ToFreqMHz = 0;
  int64_t FreqChanged = 0;
  int64_t Migrated = 0;
  double PenaltyUs = 0.0;

  static constexpr TelemetryEventKind Kind = TelemetryEventKind::ConfigSwitch;
  static constexpr auto schema() {
    using R = ConfigSwitchRecord;
    return std::make_tuple(SchemaField{"from", &R::FromConfig},
                           SchemaField{"to", &R::ToConfig},
                           SchemaField{"big", &R::ToCoreIsBig},
                           SchemaField{"freq_mhz", &R::ToFreqMHz},
                           SchemaField{"freq_changed", &R::FreqChanged},
                           SchemaField{"migrated", &R::Migrated},
                           SchemaField{"penalty_us", &R::PenaltyUs});
  }
};

/// One pipeline stage of one frame finished.
struct FrameStageRecord {
  int64_t FrameId = 0;
  std::string Stage; ///< "animate","style","layout","paint","composite","present".
  double DurationMs = 0.0;

  static constexpr TelemetryEventKind Kind = TelemetryEventKind::FrameStage;
  static constexpr auto schema() {
    using R = FrameStageRecord;
    return std::make_tuple(SchemaField{"frame", &R::FrameId},
                           SchemaField{"stage", &R::Stage},
                           SchemaField{"duration_ms", &R::DurationMs});
  }
};

/// A frame missed its active QoS target.
struct QosViolationRecord {
  std::string Governor;
  int64_t RootId = 0;
  std::string ModelKey;
  double LatencyMs = 0.0;
  double TargetMs = 0.0;
  int64_t FrameId = 0;  ///< Frame that missed (0 = unknown).
  std::string QosKind;  ///< "single" or "continuous" ("" = unknown).

  static constexpr TelemetryEventKind Kind = TelemetryEventKind::QosViolation;
  static constexpr auto schema() {
    using R = QosViolationRecord;
    return std::make_tuple(SchemaField{"governor", &R::Governor},
                           SchemaField{"root", &R::RootId},
                           SchemaField{"key", &R::ModelKey},
                           SchemaField{"latency_ms", &R::LatencyMs},
                           SchemaField{"target_ms", &R::TargetMs},
                           SchemaField{"frame", &R::FrameId},
                           SchemaField{"qos", &R::QosKind});
  }
};

/// Periodic (DAQ-style) power reading plus co-sampled simulator state.
struct EnergySampleRecord {
  double Watts = 0.0;
  double CumulativeJoules = 0.0;
  int64_t QueueDepth = 0; ///< Simulator event-queue depth at the sample.

  static constexpr TelemetryEventKind Kind = TelemetryEventKind::EnergySample;
  static constexpr auto schema() {
    using R = EnergySampleRecord;
    return std::make_tuple(SchemaField{"watts", &R::Watts},
                           SchemaField{"joules", &R::CumulativeJoules},
                           SchemaField{"queue_depth", &R::QueueDepth});
  }
};

/// A point on an extra trace counter track.
struct CounterSampleRecord {
  std::string Track;
  double Value = 0.0;

  static constexpr TelemetryEventKind Kind = TelemetryEventKind::CounterSample;
  static constexpr auto schema() {
    using R = CounterSampleRecord;
    return std::make_tuple(SchemaField{"track", &R::Track},
                           SchemaField{"value", &R::Value});
  }
};

/// A completed causal span, as SpanTracer mirrors it into the log.
struct CompletedSpanRecord {
  int64_t Id = 0;
  int64_t Parent = 0;
  int64_t Root = 0;
  int64_t Frame = 0;
  std::string Name;
  std::string Thread;
  double BeginUs = 0.0;
  double DurMs = 0.0;
  int64_t Open = 0; ///< 1 when force-closed by a flush (truncated).

  static constexpr TelemetryEventKind Kind = TelemetryEventKind::Span;
  static constexpr auto schema() {
    using R = CompletedSpanRecord;
    return std::make_tuple(SchemaField{"id", &R::Id},
                           SchemaField{"parent", &R::Parent},
                           SchemaField{"root", &R::Root},
                           SchemaField{"frame", &R::Frame},
                           SchemaField{"name", &R::Name},
                           SchemaField{"thread", &R::Thread},
                           SchemaField{"begin_us", &R::BeginUs},
                           SchemaField{"dur_ms", &R::DurMs},
                           SchemaField{"open", &R::Open});
  }
};

/// A fault-injection event: a scheduled fault window opening or
/// closing, or one discrete injection landing inside a window.
struct FaultEventRecord {
  std::string Fault;  ///< Family name ("thermal_throttle", ...).
  std::string Phase;  ///< "begin", "end", or "inject".
  std::string Detail; ///< Human-readable parameters or injection context.
  double Value = 0.0; ///< Family-specific magnitude (cap MHz, scale, ...).

  static constexpr TelemetryEventKind Kind = TelemetryEventKind::Fault;
  static constexpr auto schema() {
    using R = FaultEventRecord;
    return std::make_tuple(SchemaField{"fault", &R::Fault},
                           SchemaField{"phase", &R::Phase},
                           SchemaField{"detail", &R::Detail},
                           SchemaField{"value", &R::Value});
  }
};

/// An online anomaly detector fired (see AnomalyDetector.h).
struct AlertRecord {
  std::string Detector; ///< "frame_latency", "energy_per_frame", ...
  double Value = 0.0;    ///< The observation that crossed.
  double Baseline = 0.0; ///< The baseline mean before it.
  double Score = 0.0;    ///< The CUSUM statistic that crossed.
  int64_t Dir = 0;       ///< +1 upward shift, -1 downward.
  int64_t N = 0;         ///< Observations the detector had seen.

  static constexpr TelemetryEventKind Kind = TelemetryEventKind::Alert;
  static constexpr auto schema() {
    using R = AlertRecord;
    return std::make_tuple(SchemaField{"detector", &R::Detector},
                           SchemaField{"value", &R::Value},
                           SchemaField{"baseline", &R::Baseline},
                           SchemaField{"score", &R::Score},
                           SchemaField{"dir", &R::Dir},
                           SchemaField{"n", &R::N});
  }
};

/// One finished item of a parallel sweep (see SchedTrace.h).
struct SchedItemRecord {
  int64_t Item = 0;
  int64_t Worker = 0;
  std::string Label;
  int64_t StartNs = 0;
  int64_t RunNs = 0;
  int64_t SetupNs = 0;
  int64_t SimNs = 0;
  int64_t HookNs = 0;
  int64_t MergeNs = 0;
  int64_t HubRecords = 0;

  static constexpr TelemetryEventKind Kind = TelemetryEventKind::Sched;
  static constexpr auto schema() {
    using R = SchedItemRecord;
    return std::make_tuple(SchemaTag{"event", "item"},
                           SchemaField{"item", &R::Item},
                           SchemaField{"worker", &R::Worker},
                           SchemaField{"label", &R::Label},
                           SchemaField{"start_ns", &R::StartNs},
                           SchemaField{"run_ns", &R::RunNs},
                           SchemaField{"setup_ns", &R::SetupNs},
                           SchemaField{"sim_ns", &R::SimNs},
                           SchemaField{"hook_ns", &R::HookNs},
                           SchemaField{"merge_ns", &R::MergeNs},
                           SchemaField{"hub_records", &R::HubRecords});
  }
};

/// A parallel sweep's batch summary (see SchedReport).
struct SchedBatchRecord {
  int64_t Workers = 0;
  int64_t Items = 0;
  int64_t BatchNs = 0;
  int64_t MergeNs = 0;
  int64_t MakespanNs = 0;
  int64_t SerialSumNs = 0;
  double Speedup = 0.0;
  double Efficiency = 0.0;

  static constexpr TelemetryEventKind Kind = TelemetryEventKind::Sched;
  static constexpr auto schema() {
    using R = SchedBatchRecord;
    return std::make_tuple(SchemaTag{"event", "batch"},
                           SchemaField{"workers", &R::Workers},
                           SchemaField{"items", &R::Items},
                           SchemaField{"batch_ns", &R::BatchNs},
                           SchemaField{"merge_ns", &R::MergeNs},
                           SchemaField{"makespan_ns", &R::MakespanNs},
                           SchemaField{"serial_sum_ns", &R::SerialSumNs},
                           SchemaField{"speedup", &R::Speedup},
                           SchemaField{"efficiency", &R::Efficiency});
  }
};

/// One payload per row type. The index of a row's type is stable for
/// the life of the process (the flight recorder keys its lanes by it).
using TelemetryPayload =
    std::variant<GovernorDecisionRecord, FeedbackActionRecord,
                 ConfigSwitchRecord, FrameStageRecord, QosViolationRecord,
                 EnergySampleRecord, CounterSampleRecord,
                 CompletedSpanRecord, FaultEventRecord, AlertRecord,
                 SchedItemRecord, SchedBatchRecord>;

/// One timestamped record: its kind, its virtual time and its row.
struct TelemetryRecord {
  TelemetryEventKind Kind = GovernorDecisionRecord::Kind;
  TimePoint Ts;
  TelemetryPayload Data;

  TelemetryRecord() = default;
  /// Kind always follows the row type.
  template <class P>
  TelemetryRecord(TimePoint Ts, P Row)
      : Kind(P::Kind), Ts(Ts), Data(std::move(Row)) {}

  /// The row as \p P, or nullptr when the record holds another type.
  template <class P> const P *get() const { return std::get_if<P>(&Data); }
  /// The row as \p P; throws std::bad_variant_access for another type.
  template <class P> const P &as() const { return std::get<P>(Data); }
};

/// Calls \p Fn(Key, Value) for every member of \p Row in schema order.
/// Value is a const int64_t &, const double &, const std::string &, or
/// a std::string_view for a SchemaTag.
template <class P, class Fn> void forEachField(const P &Row, Fn &&F) {
  std::apply(
      [&](const auto &...Field) {
        auto One = [&](const auto &Def) {
          if constexpr (std::is_same_v<std::decay_t<decltype(Def)>,
                                       SchemaTag>)
            F(Def.Key, Def.Value);
          else
            F(Def.Key, Row.*Def.Member);
        };
        (One(Field), ...);
      },
      P::schema());
}

/// forEachField over whichever row \p R holds.
template <class Fn> void forEachField(const TelemetryRecord &R, Fn &&F) {
  std::visit([&](const auto &Row) { forEachField(Row, F); }, R.Data);
}

/// Appends one record as the single-line JSON object toJsonl emits (no
/// trailing newline). The flight recorder hands these to its writer so
/// a dumped record is byte-identical to its log line. Records are the
/// bulk of every log, so this is fused appends driven by the row's
/// schema rather than json::Writer calls.
void appendRecordJson(std::string &Out, const TelemetryRecord &R);

/// appendRecordJson into a fresh string.
std::string telemetryRecordJson(const TelemetryRecord &R);

/// Round-trips \p X through the JSONL number format (%.6f, trailing
/// zeros trimmed) and back, yielding the double an offline consumer of
/// the serialized log would see. The anomaly detectors score this
/// canonical value rather than the raw one so online detection and
/// offline replay of the log agree bit-for-bit even for fields (like
/// the free-running energy accumulator) that lose precision in
/// serialization.
double telemetryCanonicalNumber(double X);

/// Append-only record log with JSONL export.
class TelemetryLog {
public:
  void append(TelemetryRecord R) { Records.push_back(std::move(R)); }
  template <class P> void append(TimePoint Ts, P Row) {
    Records.emplace_back(Ts, std::move(Row));
  }

  const std::vector<TelemetryRecord> &records() const { return Records; }
  size_t size() const { return Records.size(); }
  bool empty() const { return Records.empty(); }
  void clear() { Records.clear(); }

  /// Pointers into the log for one record kind, in log order.
  std::vector<const TelemetryRecord *>
  byKind(TelemetryEventKind Kind) const;

  /// One JSON object per line: {"ts_us":...,"kind":"...",<fields>}.
  std::string toJsonl() const;
  /// Appends toJsonl()'s text to \p Out (e.g. after a header line).
  void appendJsonl(std::string &Out) const;

  /// Parses a toJsonl()-shaped document back into a log, so offline
  /// tools (gw-inspect) analyze the exact structures the in-process
  /// analyzers see. Each line goes through json::parse and is read by
  /// its kind's schema: every schema key must be present once with its
  /// type (an int64 member needs an integer literal, a double member
  /// any number, a string member a string), and no other key may
  /// appear. A line that breaks the schema, is not a JSON object, or
  /// names an unknown kind (the run-metadata header among them) is
  /// skipped, counted in \p SkippedLines and, when \p SkippedAt is
  /// given, listed there by 1-based line number.
  static TelemetryLog fromJsonl(const std::string &Text,
                                size_t *SkippedLines = nullptr,
                                std::vector<size_t> *SkippedAt = nullptr);

private:
  std::vector<TelemetryRecord> Records;
};

} // namespace greenweb

#endif // GREENWEB_TELEMETRY_TELEMETRYLOG_H
