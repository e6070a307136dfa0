//===- telemetry/StreamAggregator.h - Fleet-level run folding ---*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming aggregation of per-run headline metrics into one
/// fleet-level summary: run counts, per-run energy and violation
/// distributions (Histogram: RunningStat + quantile sketch), frame-
/// latency and energy-per-frame percentiles (bare quantile sketches),
/// and alert totals, grouped overall / per-app / per-governor. Every
/// percentile comes from the same log-linear sketch, so its error bound
/// (1.5625%) holds across the whole report. A run folds in as one
/// RunSample — nothing per-run is retained — so aggregating thousands
/// of device x app x fault runs costs a few sketches, not a few
/// gigabytes of logs. This is the substrate the fleet driver sits on.
///
/// Aggregation is associative and order-insensitive for counts and
/// sketches (RunningStat merges are order-sensitive only in
/// floating-point rounding, which is why ParallelRunner and the
/// FleetRunner fold in config index order); toJson() iterates groups in
/// name order with fixed formats, so a deterministic sweep yields a
/// byte-identical summary. writeState()/fromStateJson() round-trip the
/// full accumulator state exactly (hexfloat doubles), which is what
/// lets a fleet checkpoint resume and still fold to byte-identical
/// final aggregates.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_TELEMETRY_STREAMAGGREGATOR_H
#define GREENWEB_TELEMETRY_STREAMAGGREGATOR_H

#include "support/Json.h"
#include "telemetry/MetricsRegistry.h"
#include "telemetry/QuantileSketch.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace greenweb {

/// The per-run headline a StreamAggregator folds; one of these is the
/// entire footprint a finished run leaves behind.
struct RunSample {
  std::string App;
  std::string Governor;
  double Joules = 0.0;
  double ViolationPct = 0.0; ///< Scenario-scored violation percentage.
  uint64_t Frames = 0;
  uint64_t QosViolations = 0; ///< Raw qos_violation record count.
  uint64_t Alerts = 0;        ///< Online detector alerts during the run.
  /// Per-frame production latencies of the run, in event order. Folded
  /// into the group quantile sketches and then discarded — the sample
  /// itself is the only place raw latencies ever appear.
  std::vector<double> FrameLatenciesMs;
};

/// Streaming fleet summary; see file comment.
class StreamAggregator {
public:
  /// One aggregation group (overall, one app, or one governor).
  struct Group {
    uint64_t Runs = 0;
    uint64_t Frames = 0;
    uint64_t QosViolations = 0;
    uint64_t Alerts = 0;
    double Joules = 0.0;
    Histogram EnergyJ;      ///< Per-run total joules.
    Histogram ViolationPct; ///< Per-run violation percentage.
    QuantileSketch FrameLatencyMs;   ///< Per-frame latencies.
    QuantileSketch EnergyPerFrameMj; ///< Per-run mJ per frame.
  };

  StreamAggregator();

  /// Folds one finished run into every group it belongs to.
  void addRun(const RunSample &S);

  /// Folds another aggregator (e.g. a shard's partial) into this one.
  void mergeFrom(const StreamAggregator &O);

  uint64_t runs() const { return Total.Runs; }
  uint64_t alerts() const { return Total.Alerts; }

  /// Read-only group access for report derivation (gw-fleet /
  /// gw-inspect fleet); groups iterate in name order.
  const Group &total() const { return Total; }
  const std::map<std::string, Group> &byApp() const { return ByApp; }
  const std::map<std::string, Group> &byGovernor() const {
    return ByGovernor;
  }

  /// One deterministic JSON document with overall / by_app /
  /// by_governor groups, each carrying run counts, energy and
  /// violation summaries (count, mean, min, max, p50, p99),
  /// frame-latency and energy-per-frame sketch percentiles, and alert
  /// totals.
  std::string toJson() const;

  /// Exact accumulator state as one JSON object (integer counts,
  /// hexfloat doubles). fromStateJson() rebuilds a bit-identical
  /// aggregator, so fold sequences resumed from a checkpoint finish
  /// byte-identically to uninterrupted ones.
  void writeState(json::Writer &W) const;
  static bool fromStateJson(const json::Value &V, StreamAggregator &Out,
                            std::string *Error = nullptr);

  /// Writes the "by_app" and "by_governor" members: one object each,
  /// mapping group names (in name order) to what \p WriteGroup writes.
  template <class Fn>
  void writeGroupSections(json::Writer &W, Fn &&WriteGroup) const {
    for (const std::map<std::string, Group> *Groups : {&ByApp, &ByGovernor}) {
      W.key(Groups == &ByApp ? "by_app" : "by_governor").beginObject();
      for (const auto &[Name, G] : *Groups) {
        W.key(Name);
        WriteGroup(G);
      }
      W.endObject();
    }
  }

private:
  static void fold(Group &G, const RunSample &S);
  static void merge(Group &G, const Group &O);

  Group Total;
  std::map<std::string, Group> ByApp;
  std::map<std::string, Group> ByGovernor;
};

} // namespace greenweb

#endif // GREENWEB_TELEMETRY_STREAMAGGREGATOR_H
