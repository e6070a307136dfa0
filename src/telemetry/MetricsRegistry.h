//===- telemetry/MetricsRegistry.h - Named metric registry ------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A registry of named counters, gauges, and histograms, the metric half
/// of the telemetry subsystem. Producers register a metric once (names
/// follow a "subsystem.metric" convention, e.g. "sim.events_fired") and
/// keep the returned reference for hot-path updates; consumers snapshot
/// the whole registry as JSON or CSV.
///
/// Snapshots iterate metrics in name order and format numbers with fixed
/// printf conversions, so a snapshot of a deterministic simulation is
/// byte-for-bit reproducible. Metrics that depend on the host machine
/// (wall-clock timings) are marked volatile and excluded from snapshots
/// unless explicitly requested, which keeps the determinism guarantee.
///
/// A histogram is the repository's one distribution summary: a
/// RunningStat for count / mean / stddev / min / max plus a
/// QuantileSketch for percentiles. It has no bucket layout to choose, so
/// per-run snapshots, gw-prof, and fleet reports all quote percentiles
/// from the same estimator (relative error <= 1.5625%, exact merges).
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_TELEMETRY_METRICSREGISTRY_H
#define GREENWEB_TELEMETRY_METRICSREGISTRY_H

#include "support/Statistics.h"
#include "telemetry/QuantileSketch.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace greenweb {

/// Monotone event count.
class Counter {
public:
  void add(uint64_t N = 1) { Value += N; }
  uint64_t value() const { return Value; }
  void reset() { Value = 0; }

private:
  uint64_t Value = 0;
};

/// Last-written scalar (with accumulate support for time totals).
class Gauge {
public:
  void set(double X) { Value = X; }
  void add(double X) { Value += X; }
  double value() const { return Value; }
  void reset() { Value = 0.0; }

private:
  double Value = 0.0;
};

/// Streaming distribution summary: count / mean / stddev / min / max from
/// the Welford accumulator in RunningStat, percentiles from a
/// QuantileSketch. The sketch's bucket grid is fixed, so any two
/// histograms merge without a layout check.
class Histogram {
public:
  Histogram() = default;
  /// Rebuilds a histogram from checkpointed state.
  Histogram(const RunningStat &Stat, QuantileSketch Q)
      : Summary(Stat), Sketch(std::move(Q)) {}

  void observe(double X) {
    Summary.add(X);
    Sketch.observe(X);
  }

  /// Folds another histogram's summary and sketch into this one.
  void mergeFrom(const Histogram &O) {
    Summary.merge(O.Summary);
    Sketch.mergeFrom(O.Sketch);
  }

  /// Estimated value at quantile \p Q in [0,1]; see
  /// QuantileSketch::quantile. Returns 0 with no observations.
  double quantile(double Q) const { return Sketch.quantile(Q); }

  const RunningStat &summary() const { return Summary; }
  const QuantileSketch &sketch() const { return Sketch; }

private:
  RunningStat Summary;
  QuantileSketch Sketch;
};

/// The metric registry. Not thread-safe (the simulator is
/// single-threaded); registration is idempotent by name.
class MetricsRegistry {
public:
  /// Returns the counter named \p Name, creating it on first use. Keys
  /// are looked up heterogeneously, so hot paths can pass a
  /// string_view (or literal) without materializing a std::string.
  Counter &counter(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  Histogram &histogram(std::string_view Name);

  /// Marks \p Name as host-dependent; volatile metrics are skipped by
  /// snapshots unless IncludeVolatile is set.
  void markVolatile(std::string_view Name);

  /// True if a metric named \p Name exists (any kind).
  bool has(std::string_view Name) const;

  /// Read-only lookups (nullptr when absent) for consumers that must
  /// not create metrics as a side effect (aggregation, tests).
  const Counter *findCounter(std::string_view Name) const;
  const Gauge *findGauge(std::string_view Name) const;
  const Histogram *findHistogram(std::string_view Name) const;

  /// Folds another registry into this one: counters add, gauges take
  /// the other registry's value (last writer wins, matching Gauge::set
  /// semantics in a sequential merge), histograms merge summaries and
  /// sketches. Metrics absent here are created; volatile marks are
  /// unioned. Used to combine per-worker registries after a parallel
  /// sweep, in worker index order for determinism.
  void mergeFrom(const MetricsRegistry &O);

  /// Number of registered metrics.
  size_t size() const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string snapshotJson(bool IncludeVolatile = false) const;

  /// CSV with header "metric,kind,field,value"; histograms expand to one
  /// row per summary field and percentile.
  std::string snapshotCsv(bool IncludeVolatile = false) const;

  /// Drops every metric and volatile mark.
  void clear();

private:
  bool isVolatile(std::string_view Name) const;

  /// std::less<> enables find(string_view) without a key allocation.
  std::map<std::string, Counter, std::less<>> Counters;
  std::map<std::string, Gauge, std::less<>> Gauges;
  std::map<std::string, Histogram, std::less<>> Histograms;
  std::vector<std::string> VolatileNames;
};

} // namespace greenweb

#endif // GREENWEB_TELEMETRY_METRICSREGISTRY_H
