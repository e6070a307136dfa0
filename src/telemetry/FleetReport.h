//===- telemetry/FleetReport.h - Fleet checkpoints and reports --*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durable half of fleet-scale observability: FleetState is the
/// folded aggregate a population run accumulates (stream aggregator,
/// per-shard rollups, worst-k devices, warm-asset keys), FleetCheckpoint
/// wraps it with a completed-item bitmap and a length+checksum integrity
/// footer so an interrupted run resumes exactly, and FleetReport derives
/// the headline document (QoS-violation distribution, energy saved per
/// million users vs a named baseline governor, shard rollups, worst-k
/// devices with flight-recorder black-box refs, warm-pool hit rate).
///
/// Everything here is deterministic: state serializes doubles as
/// hexfloats (exact round-trip), the report derives only from state —
/// never from host wall-clock — and both print with fixed formats. That
/// is what makes the two parity gates hold: a run killed mid-fleet and
/// resumed folds to a byte-identical report, and `gw-inspect fleet`
/// re-derives the report offline byte-for-byte from the checkpoint
/// alone (mirroring the `gw-inspect sched` contract).
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_TELEMETRY_FLEETREPORT_H
#define GREENWEB_TELEMETRY_FLEETREPORT_H

#include "telemetry/StreamAggregator.h"

#include <cstdint>
#include <string>
#include <vector>

namespace greenweb {

/// Per-shard (one scheduled batch) deterministic rollup. Host wall
/// times deliberately do not appear here — they would break resume
/// parity; the fleet driver prints them live instead (and SchedTrace
/// remains the opt-in home for host-side scheduler observability).
struct FleetShardRollup {
  uint64_t Shard = 0;     ///< Batch index in plan order.
  uint64_t FirstItem = 0; ///< First plan-item index of the shard.
  uint64_t Items = 0;     ///< Items folded (the shard's size).
  uint64_t QosViolations = 0;
  uint64_t Alerts = 0;
  double Joules = 0.0;
  /// Worst device of the shard: highest scenario-scored violation
  /// percentage, ties broken toward the lower item index.
  uint64_t WorstItem = 0;
  std::string WorstLabel;
  double WorstViolationPct = 0.0;
};

/// One of the population's worst-k devices (highest violation
/// percentage; ties by higher joules, then lower item index).
struct FleetWorstDevice {
  uint64_t Item = 0;
  std::string Label; ///< "App|Governor|s<seed>|<scenario>|r<replica>".
  double ViolationPct = 0.0;
  double Joules = 0.0;
  uint64_t Alerts = 0;
  /// Flight-recorder black-box ref (a file the driver wrote next to the
  /// checkpoint), empty when the run tripped no recorder trigger or no
  /// checkpoint path was configured.
  std::string BlackBoxRef;
};

/// The folded aggregate state of a (possibly partial) fleet run.
struct FleetState {
  /// Devices retained in the worst-k list.
  static constexpr size_t WorstKCapacity = 8;

  StreamAggregator Agg;
  std::vector<FleetShardRollup> Shards; ///< In shard order.
  std::vector<FleetWorstDevice> Worst;  ///< Sorted worst-first, <= k.
  /// Distinct warm-asset keys ("app#seed") among folded items, sorted.
  /// Deterministic stand-in for live WarmCache counters: an
  /// uninterrupted run's pool builds exactly one asset per key, so
  /// hit-rate derived here equals the live rate while staying
  /// resume-exact.
  std::vector<std::string> WarmKeys;

  /// Whether noteDevice(D) would keep \p D now: the list has room, or D
  /// ranks worse than its last entry (in noteDevice's order). The last
  /// entry only gets worse as devices fold in, so a "no" stays a "no"
  /// for the rest of the run.
  bool couldEnterWorst(const FleetWorstDevice &D) const;
  /// Folds \p D into the worst-k list (insertion sort + truncate).
  void noteDevice(FleetWorstDevice D);
  /// Records \p Key into WarmKeys if new (kept sorted).
  void noteWarmKey(const std::string &Key);

  /// Exact JSON round-trip (hexfloat doubles, integer counts).
  std::string toJson() const;
  static bool fromJson(const json::Value &V, FleetState &Out,
                       std::string *Error = nullptr);
};

/// A durable checkpoint: plan identity, completed-item bitmap, folded
/// state, optionally the embedded final report, and an integrity footer
/// (payload length + FNV-1a checksum) so truncation and corruption are
/// detected rather than silently re-run.
struct FleetCheckpoint {
  /// Layout version of the serialized document. 2: aggregator
  /// histograms carry a RunningStat plus a quantile sketch instead of
  /// fixed bucket counts. load() refuses any other version outright.
  static constexpr int Schema = 2;

  std::string PlanName;
  uint64_t PlanHash = 0; ///< FNV-1a of the canonical plan JSON.
  std::string BaselineGovernor;
  uint64_t ItemsTotal = 0;
  std::vector<uint8_t> DoneBitmap; ///< ceil(ItemsTotal/8) bytes.
  FleetState State;
  /// The final report (single-line JSON object, no trailing newline),
  /// embedded once the run completes; empty while partial.
  std::string ReportJson;

  bool done(uint64_t Item) const;
  void markDone(uint64_t Item);
  uint64_t doneCount() const;

  /// One JSON document ending in the integrity footer; load() verifies
  /// the footer before trusting anything else.
  std::string serialize() const;
  static bool load(const std::string &Text, FleetCheckpoint &Out,
                   std::string *Error = nullptr);
};

/// The fleet-level headline document, derived purely from checkpoint
/// state (plus plan identity), so online and offline derivations agree
/// byte-for-byte.
struct FleetReport {
  std::string PlanName;
  std::string BaselineGovernor;
  uint64_t ItemsTotal = 0;
  uint64_t ItemsDone = 0;
  FleetState State;

  static FleetReport fromCheckpoint(const FleetCheckpoint &C);

  /// Single-line deterministic JSON document (ends without newline, so
  /// it embeds verbatim into the checkpoint's "report" member).
  std::string toJson() const;
  /// Human-readable multi-section summary.
  std::string format() const;
};

/// FNV-1a 64-bit over \p Text; the checkpoint/plan hash primitive.
uint64_t fleetHash(std::string_view Text);

/// Extracts the embedded "report" JSON object byte-for-byte from a
/// checkpoint document (balanced-brace scan, string-aware). Empty when
/// the checkpoint carries no report (run still partial).
std::string fleetReportSectionFromArtifact(const std::string &Text);

} // namespace greenweb

#endif // GREENWEB_TELEMETRY_FLEETREPORT_H
