//===- perfbench/Metrics.h - Benchmark metrics and checks -------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's bookkeeping: named metrics with units and raw
/// per-repetition samples, the attempted/failed ledger behind fail_frac,
/// the FNV-1a digest of every simulated statistic a run produces, and
/// the result document (the bench JSON shape gw-diff reads).
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_PERFBENCH_METRICS_H
#define GREENWEB_PERFBENCH_METRICS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace greenweb {
struct ExperimentResult;
} // namespace greenweb

namespace greenweb::perfbench {

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
  /// Raw per-repetition measurements (empty for single readings).
  std::vector<double> Samples;
};

/// An ordered set of uniquely named metrics. perfbench/run.py checks
/// the names against the benchmark's naming rule.
class MetricSet {
public:
  /// Throws std::invalid_argument on a repeated name.
  void add(const std::string &Name, double Value, const std::string &Unit,
           std::vector<double> Samples = {});
  const Metric *find(std::string_view Name) const;
  const std::vector<Metric> &all() const { return Metrics; }

private:
  std::vector<Metric> Metrics;
};

/// Operations attempted and failed in one benchmark run.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// The first few failure reasons, for the report.
  std::vector<std::string> Reasons;

  void fail(std::string Why);
  double failFrac() const {
    return Attempted ? double(Failed) / double(Attempted) : 1.0;
  }
};

/// FNV-1a over a canonical rendering of every simulated statistic of
/// one run: joules, violation percentages, frames, switches,
/// migrations, events and script-error count.
uint64_t resultDigest(const ExperimentResult &R);

/// Remembers the first digest seen for each operation index and fails
/// every later repetition whose digest differs from it.
class DigestBook {
public:
  /// Returns false, and records a failure in \p Out, on a mismatch.
  bool check(size_t Op, uint64_t Digest, Outcome &Out,
             const std::string &Label);

  /// FNV-1a over the first-seen digests, in operation order.
  uint64_t combined() const;

private:
  std::vector<uint64_t> First;
  std::vector<bool> Seen;
};

/// Peak resident set of this process, in MB.
double peakRssMb();

/// Up to \p Cap evenly strided samples (the whole vector when smaller).
std::vector<double> strided(const std::vector<double> &Samples, size_t Cap);

/// The result document: {"harness","meta","workload","env","outcome",
/// "scalars":[{"name","value","unit","samples"}]} with full-precision
/// numbers. gw-diff compares two of these directly.
std::string resultJson(const std::string &Workload, uint64_t Seed,
                       bool Traced, unsigned Jobs, unsigned Nproc,
                       const std::string &CommandLine, const MetricSet &M,
                       const Outcome &O);

} // namespace greenweb::perfbench

#endif // GREENWEB_PERFBENCH_METRICS_H
