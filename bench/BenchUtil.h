//===- bench/BenchUtil.h - shared benchmark helpers --------------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-table/figure benchmark harnesses: the
/// harness session (strict flags, JSON report, shared artifacts), cached
/// median experiment runs (the paper's three-seed protocol, Sec. 7.1),
/// parallel cell prefetch, self-timed measurement, and common
/// formatting.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_BENCH_BENCHUTIL_H
#define GREENWEB_BENCH_BENCHUTIL_H

#include "profiling/RunCompare.h"
#include "profiling/RunMeta.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "telemetry/Telemetry.h"
#include "workloads/Experiment.h"
#include "workloads/ParallelRunner.h"
#include "workloads/TelemetryArtifacts.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

namespace greenweb::bench {

/// One harness invocation. Parses the command line strictly: the flags
/// every driver shares (TelemetryArtifactOptions: --metrics=, --prof,
/// ...), the bench flags
///
///   --json=<path>      write the harness's results as JSON to <path>
///   --jobs=N           worker threads for sweep prefetch (0 = hardware)
///   --samples-cap=N    cap raw sample arrays in JSON (0 = unlimited;
///                      default 100, so long self-timed runs do not
///                      bloat committed baselines)
///
/// and the harness's own switches. An unknown flag or a malformed value
/// exits 2 with usage on stderr. On destruction the harness writes its
/// JSON document, then the shared artifacts of its metrics-only hub
/// (which ResultCache instruments into) and the profile.
class Harness {
public:
  Harness(std::string Name, int Argc, char **Argv,
          std::initializer_list<std::string_view> Switches = {})
      : Json(Name) {
    size_t SamplesCap = 100;
    auto Own = [&](std::string_view Arg) {
      if (auto V = flagValue(Arg, "--json="))
        JsonPath = *V;
      else if (auto V = flagValue(Arg, "--jobs="))
        return countArg(*V, Jobs);
      else if (auto V = flagValue(Arg, "--samples-cap="))
        return countArg(*V, SamplesCap);
      else if (std::find(Switches.begin(), Switches.end(), Arg) !=
               Switches.end())
        SwitchesSet.emplace_back(Arg);
      else
        return ArgMatch::Unknown;
      return ArgMatch::Taken;
    };
    if (!Artifacts.parseArgs(Argc, Argv, Own)) {
      std::fprintf(stderr,
                   "usage: %s [--json=PATH] [--jobs=N] [--samples-cap=N]",
                   Name.c_str());
      for (std::string_view Switch : Switches)
        std::fprintf(stderr, " [%.*s]", int(Switch.size()), Switch.data());
      std::fprintf(stderr, " [--metrics=PATH] [--prof] [--prof-out=BASE] "
                           "[--prof-sample=MICROS]\n");
      std::exit(2);
    }
    Json = prof::BenchReport(std::move(Name), 3, SamplesCap);
    Tel.setLogCapacity(0);
    Artifacts.configureHub(Tel);
  }

  Harness(const Harness &) = delete;
  Harness &operator=(const Harness &) = delete;

  ~Harness() {
    if (!JsonPath.empty())
      Json.write(JsonPath, prof::RunMeta::current(Artifacts.CommandLine));
    writeTelemetryArtifacts(Artifacts, Tel);
  }

  /// True when the harness switch \p Switch was given.
  bool has(std::string_view Switch) const {
    return std::find(SwitchesSet.begin(), SwitchesSet.end(), Switch) !=
           SwitchesSet.end();
  }

  std::string JsonPath;
  unsigned Jobs = 1; ///< Benches default to serial; sweeps opt in.
  TelemetryArtifactOptions Artifacts;
  prof::BenchReport Json;
  /// Metrics-only hub every cached run instruments into.
  Telemetry Tel;

private:
  std::vector<std::string> SwitchesSet;
};

/// A self-timed measurement: ops, wall seconds and per-round samples.
struct Measurement {
  uint64_t Ops = 0;
  double Seconds = 0.0;
  std::vector<double> SamplesNsPerOp; ///< Per-round ns/op, for gw-diff.
  double nsPerOp() const { return Ops ? Seconds / double(Ops) * 1e9 : 0; }
  double opsPerSec() const { return Seconds > 0 ? double(Ops) / Seconds : 0; }
};

/// Repeats \p Round (which returns the ops it performed) until at least
/// \p MinSeconds of wall clock accumulate, timing each round separately
/// so the JSON output can carry raw samples for significance testing.
inline Measurement measure(const std::function<uint64_t()> &Round,
                           double MinSeconds = 0.25) {
  Measurement M;
  auto Start = std::chrono::steady_clock::now();
  do {
    auto RoundStart = std::chrono::steady_clock::now();
    uint64_t Ops = Round();
    auto RoundEnd = std::chrono::steady_clock::now();
    M.Ops += Ops;
    if (Ops)
      M.SamplesNsPerOp.push_back(
          std::chrono::duration<double>(RoundEnd - RoundStart).count() /
          double(Ops) * 1e9);
    M.Seconds = std::chrono::duration<double>(RoundEnd - Start).count();
  } while (M.Seconds < MinSeconds);
  return M;
}

/// One (app, governor, mode) sweep cell.
using BenchCell = std::tuple<std::string, std::string, ExperimentMode>;

/// Runs (or returns the cached) median experiment for one
/// (app, governor, mode) cell under the paper's three-seed protocol.
///
/// Every run instruments into the harness's metrics-only hub (a sweep
/// touches hundreds of runs, so the per-record log stays off);
/// --metrics=<path> writes the aggregate snapshot when the harness
/// exits. Stdout is unaffected either way.
class ResultCache {
public:
  explicit ResultCache(Harness &H) : Tel(H.Tel), Jobs(H.Jobs) {}

  /// Runs every not-yet-cached cell across the harness's --jobs worker
  /// threads and caches the results, so subsequent get() calls are
  /// hits. Per-run telemetry lands in the shared hub in cell order — the
  /// aggregate is identical to running the same cells serially through
  /// get().
  void prefetch(const std::vector<BenchCell> &Cells) {
    std::vector<BenchCell> Missing;
    for (const BenchCell &Cell : Cells)
      if (!Cache.count(key(Cell)))
        Missing.push_back(Cell);
    if (Missing.empty())
      return;
    std::vector<ExperimentConfig> Configs;
    Configs.reserve(Missing.size());
    for (const auto &[App, Governor, Mode] : Missing) {
      ExperimentConfig Config;
      Config.AppName = App;
      Config.GovernorName = Governor;
      Config.Mode = Mode;
      Configs.push_back(std::move(Config));
    }
    ParallelExperimentOptions Opts;
    Opts.Jobs = Jobs;
    Opts.SharedTel = &Tel;
    Opts.MedianSeeds = {1, 2, 3};
    Opts.PerJobHook = [](size_t, const ExperimentResult &, Telemetry &T) {
      T.metrics().counter("bench.cells_run").add();
    };
    std::vector<ExperimentResult> Results =
        runExperimentsParallel(Configs, Opts);
    for (size_t I = 0; I < Missing.size(); ++I)
      Cache.emplace(key(Missing[I]), std::move(Results[I]));
  }

  const ExperimentResult &get(const std::string &App,
                              const std::string &Governor,
                              ExperimentMode Mode) {
    auto Key = key({App, Governor, Mode});
    auto It = Cache.find(Key);
    if (It != Cache.end()) {
      Tel.metrics().counter("bench.cache_hits").add();
      return It->second;
    }
    Tel.metrics().counter("bench.cells_run").add();
    ExperimentConfig Config;
    Config.AppName = App;
    Config.GovernorName = Governor;
    Config.Mode = Mode;
    Config.Tel = &Tel;
    auto [Inserted, _] =
        Cache.emplace(Key, runExperimentMedian(Config, {1, 2, 3}));
    return Inserted->second;
  }

private:
  static std::string key(const BenchCell &Cell) {
    return std::get<0>(Cell) + "|" + std::get<1>(Cell) +
           (std::get<2>(Cell) == ExperimentMode::Micro ? "|micro"
                                                       : "|full");
  }

  Telemetry &Tel;
  unsigned Jobs;
  std::map<std::string, ExperimentResult> Cache;
};

/// Prints the standard harness banner.
inline void banner(const char *Id, const char *Paper) {
  std::printf("==============================================================="
              "=\n");
  std::printf("GreenWeb reproduction - %s\n", Id);
  std::printf("Paper reference: %s\n", Paper);
  std::printf("==============================================================="
              "=\n\n");
}

/// "N/A"-safe percentage of a baseline.
inline std::string percentOf(double Value, double Baseline) {
  if (Baseline <= 0.0)
    return "n/a";
  return formatString("%.1f%%", 100.0 * Value / Baseline);
}

} // namespace greenweb::bench

#endif // GREENWEB_BENCH_BENCHUTIL_H
