//===- profiling/RunCompare.h - Run-comparison engine -----------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The regression-sentinel core behind the gw-diff tool: ingest two run
/// artifacts (bench --json files, metrics snapshots, or telemetry JSONL
/// logs), align metric series by name, and classify every shared metric
/// as improved / regressed / unchanged against a configurable noise
/// threshold.
///
/// Metrics that carry raw per-iteration sample arrays get a statistical
/// treatment: a two-sided Mann-Whitney U test (normal approximation
/// with tie correction) decides significance, and a fixed-seed
/// bootstrap produces a confidence interval on the relative delta of
/// means — so the report is deterministic for deterministic inputs.
/// Point-only metrics fall back to the noise threshold alone.
///
/// Run-metadata headers (see RunMeta.h) gate the comparison: differing
/// schema versions refuse outright; differing compiler, build type, or
/// host are surfaced as warnings (and refuse under
/// CompareOptions::StrictMeta) because wall-clock numbers from
/// different environments are not comparable.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_PROFILING_RUNCOMPARE_H
#define GREENWEB_PROFILING_RUNCOMPARE_H

#include "profiling/RunMeta.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace greenweb {
class TablePrinter;
} // namespace greenweb

namespace greenweb::prof {

/// One named series from a run artifact: a point value plus optional
/// raw samples (per-iteration measurements) when the producer emitted
/// them.
struct MetricSeries {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
  std::vector<double> Samples;

  bool hasSamples() const { return Samples.size() >= 2; }
};

/// A parsed run artifact, normalized to a flat name->series list.
struct RunSnapshot {
  std::string SourceKind; ///< "bench", "metrics", or "telemetry".
  std::string Harness;    ///< Bench harness name ("" otherwise).
  bool HasMeta = false;
  RunMeta Meta;
  std::vector<MetricSeries> Metrics; ///< Sorted by name.

  const MetricSeries *find(std::string_view Name) const;

  /// Parses artifact text, auto-detecting the format: a JSON document
  /// with "harness" (bench), with "counters" (metrics snapshot), or a
  /// JSONL telemetry log. Nullopt + \p Error on failure.
  static std::optional<RunSnapshot> parse(const std::string &Text,
                                          std::string *Error = nullptr);
  static std::optional<RunSnapshot> loadFile(const std::string &Path,
                                             std::string *Error = nullptr);
};

/// The writer of the bench-result document RunSnapshot::parse reads:
///
///   {
///     "harness": "<name>",
///     "meta": {RunMeta},
///     "benchmarks": [
///       {"name":..,"iterations":N,"ns_per_op":X,"<rate>":R,"note":..,
///        "samples_ns_per_op":[..]},
///       ...
///     ],
///     "scalars": [
///       {"name":..,"value":X,"unit":..,"note":..,"samples":[..]}, ...
///     ],
///     "tables": [
///       {"name":..,"title":..,"rows":[
///         ["cell",..],
///         ...
///       ]}, ...
///     ]
///   }
///
/// Optional members are written only when set, and empty sections are
/// left out. ns_per_op, rates and sample values print with 3 digits
/// after the point (SampleDigits overrides it for samples), scalar
/// values with 6. Every bench harness and example driver that emits
/// this document writes it through this class.
class BenchReport {
public:
  /// \p SampleDigits: digits after the point in sample arrays.
  /// \p SamplesCap: longer sample arrays are downsampled with an even
  /// stride, which keeps the whole time span for gw-diff's significance
  /// tests (0 = keep every sample).
  explicit BenchReport(std::string Harness, int SampleDigits = 3,
                       size_t SamplesCap = 0);

  /// One microbenchmark result. \p RateLabel/\p Rate report the
  /// domain-specific throughput ("events_per_sec", ...); an empty label
  /// writes none. \p Samples are the raw per-round ns/op.
  void metric(std::string_view Name, uint64_t Iterations, double NsPerOp,
              std::string_view RateLabel = "", double Rate = 0.0,
              std::string_view Note = "",
              const std::vector<double> &Samples = {});

  /// One headline scalar. \p Note flags a caveat a reader of the
  /// committed artifact needs ("oversubscribed: ...").
  void scalar(std::string_view Name, double Value,
              std::string_view Unit = "",
              const std::vector<double> &Samples = {},
              std::string_view Note = "");

  /// A rendered table, header row first, every cell as a string.
  void table(std::string_view Name, const TablePrinter &T);

  /// The document, stamped with \p Meta.
  std::string json(const RunMeta &Meta) const;

  /// Writes json(\p Meta) to \p Path. False, with a diagnostic on
  /// stderr, when the file cannot be written.
  bool write(const std::string &Path, const RunMeta &Meta) const;

private:
  void samples(std::string &Out, const std::vector<double> &Values) const;

  std::string Harness;
  int SampleDigits;
  size_t SamplesCap;
  /// Serialized entries, one per line of their section.
  std::vector<std::string> Benchmarks, Scalars, Tables;
};

/// Which way "better" points for a metric, inferred from its name
/// (ns_per_op and *_seconds are lower-is-better, *_per_sec and
/// *speedup* higher-is-better, counters neutral).
enum class Direction { LowerIsBetter, HigherIsBetter, Neutral };
Direction metricDirection(std::string_view Name);

enum class Verdict {
  Improved,
  Regressed,
  Unchanged,
  BaselineOnly,  ///< Present only in the baseline.
  CandidateOnly, ///< Present only in the candidate.
};
const char *verdictName(Verdict V);

/// One aligned metric's comparison.
struct MetricDelta {
  std::string Name;
  Direction Dir = Direction::Neutral;
  Verdict V = Verdict::Unchanged;
  double Base = 0.0;
  double Cand = 0.0;
  double DeltaPct = 0.0; ///< (Cand - Base) / |Base| * 100.
  bool HasStats = false; ///< Both sides carried raw samples.
  double PValue = 1.0;   ///< Mann-Whitney two-sided (when HasStats).
  double CiLoPct = 0.0;  ///< Bootstrap 95% CI on DeltaPct.
  double CiHiPct = 0.0;
};

struct CompareOptions {
  /// |delta| below this percentage is never a verdict change.
  double NoiseThresholdPct = 5.0;
  /// Significance level for the Mann-Whitney test.
  double Alpha = 0.05;
  uint64_t BootstrapIters = 1000;
  uint64_t BootstrapSeed = 0x67775f646966660aull; ///< Fixed: reports stay deterministic.
  /// Refuse (not just warn) when compiler/build/host metadata differ.
  bool StrictMeta = false;
};

struct CompareResult {
  std::vector<MetricDelta> Deltas; ///< Sorted by name.
  size_t Improved = 0;
  size_t Regressed = 0;
  size_t Unchanged = 0;
  /// Non-empty: the runs must not be compared (schema/source mismatch,
  /// or environment mismatch under StrictMeta).
  std::string MetaError;
  /// Environment differences worth flagging (different compiler, ...).
  std::vector<std::string> MetaWarnings;

  bool comparable() const { return MetaError.empty(); }
  bool hasRegressions() const { return Regressed > 0; }
};

CompareResult compareRuns(const RunSnapshot &Base, const RunSnapshot &Cand,
                          const CompareOptions &Opts = {});

/// Human-readable report (deterministic for deterministic inputs).
std::string formatCompareReport(const CompareResult &R,
                                const CompareOptions &Opts);

/// Machine-readable report: {"comparable":...,"improved":N,...,
/// "metrics":[{"name":...,"verdict":...},...]}.
std::string compareReportJson(const CompareResult &R,
                              const CompareOptions &Opts);

//===----------------------------------------------------------------------===//
// Statistics (exposed for tests)
//===----------------------------------------------------------------------===//

/// Two-sided Mann-Whitney U p-value via the normal approximation with
/// tie correction and continuity correction. Returns 1.0 when either
/// side has fewer than 2 samples or every value ties.
double mannWhitneyPValue(const std::vector<double> &A,
                         const std::vector<double> &B);

struct BootstrapCi {
  double LoPct = 0.0;
  double HiPct = 0.0;
};

/// 95% percentile-bootstrap CI on the relative delta of means,
/// (mean(Cand*) - mean(Base*)) / |mean(Base*)| * 100, with a fixed
/// seed so repeated runs agree bit-for-bit.
BootstrapCi bootstrapMeanDeltaCi(const std::vector<double> &Base,
                                 const std::vector<double> &Cand,
                                 uint64_t Iters, uint64_t Seed);

} // namespace greenweb::prof

#endif // GREENWEB_PROFILING_RUNCOMPARE_H
