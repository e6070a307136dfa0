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
/// energy samples. Records carry a small set of key/value fields; the log
/// serializes to JSONL (one JSON object per line) for offline analysis.
///
/// Because every timestamp comes from the simulator's virtual clock and
/// field ordering is fixed at record time, a log of a fixed-seed run is
/// byte-for-bit reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_TELEMETRY_TELEMETRYLOG_H
#define GREENWEB_TELEMETRY_TELEMETRYLOG_H

#include "support/Time.h"

#include <cstdint>
#include <string>
#include <string_view>
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
bool telemetryEventKindFromName(const std::string &Name,
                                TelemetryEventKind &Out);

/// One field of a record. Integers and doubles serialize as JSON
/// numbers, strings as JSON strings.
struct TelemetryField {
  std::string Key;
  std::variant<int64_t, double, std::string> Value;
};

/// One timestamped record.
struct TelemetryRecord {
  TelemetryEventKind Kind;
  TimePoint Ts;
  std::vector<TelemetryField> Fields;

  /// Field lookup helpers (nullptr / default when absent or mistyped).
  /// string_view keys let per-record consumers pass literals without a
  /// std::string allocation per lookup.
  const TelemetryField *find(std::string_view Key) const;
  double numberOr(std::string_view Key, double Default) const;
  std::string stringOr(std::string_view Key,
                       const std::string &Default) const;
  /// stringOr without the copy: a view into this record's field (valid
  /// while the record lives) or \p Default.
  std::string_view stringViewOr(std::string_view Key,
                                std::string_view Default) const;
};

/// Appends one record as the single-line JSON object toJsonl emits (no
/// trailing newline). The flight recorder hands these to its writer so
/// a dumped record is byte-identical to its log line. Records are the
/// bulk of every log, so this is fused appends rather than json::Writer
/// calls: it writes the same bytes in about two thirds of the time.
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
  void append(TelemetryEventKind Kind, TimePoint Ts,
              std::vector<TelemetryField> Fields);

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
  /// analyzers see. Each line goes through json::parse. Field values
  /// parse as int64 when the literal has no '.'/exponent (toJsonl always
  /// prints doubles with a '.', so the round trip preserves types;
  /// integers beyond 2^53 read back rounded, like every JSON number
  /// here). Lines that are not flat JSON objects or name an unknown kind
  /// are skipped, counted in \p SkippedLines and, when \p SkippedAt is
  /// given, listed there by 1-based line number.
  static TelemetryLog fromJsonl(const std::string &Text,
                                size_t *SkippedLines = nullptr,
                                std::vector<size_t> *SkippedAt = nullptr);

private:
  std::vector<TelemetryRecord> Records;
};

} // namespace greenweb

#endif // GREENWEB_TELEMETRY_TELEMETRYLOG_H
