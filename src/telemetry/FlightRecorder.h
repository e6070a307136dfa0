//===- telemetry/FlightRecorder.h - Always-on black box ---------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flight recorder: a fixed-size ring of the most recent telemetry
/// records (spans included — they are mirrored into the record stream)
/// that costs one slot write per record in steady state, plus trigger
/// detection that snapshots the ring into a self-contained "black box"
/// dump when something goes wrong. Always-on capture therefore no
/// longer requires unbounded TelemetryLog files: metrics-only sweeps
/// keep the full context of the last few hundred records around every
/// incident for free.
///
/// Triggers are derived purely from the record stream, so the very same
/// code produces byte-identical dumps online (inside the Telemetry hub)
/// and offline (`gw-inspect blackbox` replaying a JSONL log):
///
///   qos_burst       >= BurstCount qos_violation records inside
///                   BurstWindowMs of virtual time
///   watchdog_trip   a governor_decision with reason
///                   "watchdog_fallback" (GreenWebRuntime's watchdog)
///   fault_window    a fault record with phase "begin" (FaultInjector)
///   alert:<name>    any Alert record (AnomalyDetector)
///
/// observeTelemetryRecord() is the canonical per-record feed order
/// shared by the hub and the offline replayers; replayObservability()
/// re-runs a parsed log through fresh instances exactly as the hub
/// would have online, which is how `gw-inspect alerts` verifies
/// online/offline parity.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_TELEMETRY_FLIGHTRECORDER_H
#define GREENWEB_TELEMETRY_FLIGHTRECORDER_H

#include "telemetry/AnomalyDetector.h"
#include "telemetry/TelemetryLog.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace greenweb {

namespace json {
class Writer;
}

/// Flight-recorder tuning; the defaults keep one dump around 256
/// records and bound per-run memory at MaxDumps rings.
struct FlightRecorderConfig {
  /// Ring slots; a dump carries at most this many records.
  size_t RingCapacity = 256;
  /// QoS violations within BurstWindowMs that constitute a burst.
  size_t BurstCount = 8;
  double BurstWindowMs = 100.0;
  /// Black boxes retained per run; further triggers only count.
  size_t MaxDumps = 8;
  /// Records that must pass between dumps (a watchdog storm must not
  /// dump the same ring eight times).
  size_t CooldownRecords = 64;
};

/// One snapshotted black box.
struct BlackBoxDump {
  std::string Trigger; ///< "qos_burst", "watchdog_trip", ...
  std::string Detail;  ///< Trigger-specific context.
  TimePoint Ts;        ///< Virtual time of the triggering record.
  uint64_t Seq = 0;    ///< Records observed when the trigger fired.
  std::vector<TelemetryRecord> Records; ///< Ring contents, oldest first.

  /// Writes a self-contained JSON object; records use the exact JSONL
  /// line format of TelemetryLog::toJsonl.
  void appendJson(json::Writer &W) const;
};

/// The recorder; see file comment.
class FlightRecorder {
public:
  explicit FlightRecorder(const FlightRecorderConfig &C = {});

  /// Pushes \p R into the ring, then evaluates triggers against it.
  void onRecord(const TelemetryRecord &R);

  const std::vector<BlackBoxDump> &dumps() const { return Dumps; }
  /// Triggers seen, including those suppressed by cooldown or MaxDumps.
  uint64_t triggers() const { return Triggers; }
  /// Triggers that produced no dump (cooldown window).
  uint64_t suppressed() const { return Suppressed; }
  /// Triggers dropped because MaxDumps black boxes already exist.
  uint64_t dropped() const { return Dropped; }
  const FlightRecorderConfig &config() const { return Cfg; }

  /// Every dump plus the trigger counters as one JSON document
  /// ({"kind":"blackbox","dumps":[...],...}); byte-identical for a
  /// byte-identical record stream.
  std::string dumpsJson() const;

private:
  void trigger(const std::string &Reason, std::string Detail,
               const TelemetryRecord &R);

  /// The last RingCapacity records of one row type. A slot is only
  /// ever overwritten by a row of its own type, so the copy reuses the
  /// slot's string capacity and a steady stream allocates nothing.
  struct Lane {
    std::vector<TelemetryRecord> Slots;
    uint32_t Next = 0; ///< Slot the next row of this type takes.
  };
  /// A ring slot: where its record sits.
  struct Entry {
    uint32_t Lane = 0;
    uint32_t Slot = 0;
  };

  FlightRecorderConfig Cfg;
  std::array<Lane, std::variant_size_v<TelemetryPayload>> Lanes;
  std::vector<Entry> Ring; ///< The last RingCapacity records.
  size_t RingNext = 0;     ///< Slot the next record takes (oldest once full).
  uint64_t Seq = 0;        ///< Total records observed.
  uint64_t LastDumpSeq = 0;
  uint64_t Triggers = 0;
  uint64_t Suppressed = 0;
  uint64_t Dropped = 0;
  TrailingWindow Violations; ///< qos_burst trailing window.
  std::vector<BlackBoxDump> Dumps;
};

/// Canonical per-record observation order shared by the online hub and
/// the offline replayers: the record enters the ring, then the detector
/// bank scores it, and every resulting alert enters the ring in turn
/// (where it may itself trigger a dump). Returns the alerts so the
/// caller can append them to its log / alert stream. Either pointer may
/// be null.
std::vector<TelemetryRecord> observeTelemetryRecord(const TelemetryRecord &R,
                                                    FlightRecorder *Recorder,
                                                    DetectorBank *Bank);

/// Replays \p Log through \p Bank (and \p Recorder, when given) exactly
/// as the hub feeds records online, skipping Alert records already in
/// the log — they are the online output being reproduced. Returns the
/// regenerated alert stream in emission order.
std::vector<TelemetryRecord> replayObservability(const TelemetryLog &Log,
                                                 DetectorBank &Bank,
                                                 FlightRecorder *Recorder);

} // namespace greenweb

#endif // GREENWEB_TELEMETRY_FLIGHTRECORDER_H
