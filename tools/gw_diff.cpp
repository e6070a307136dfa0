//===- tools/gw_diff.cpp - run-comparison regression sentinel ------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// gw-diff compares two run artifacts — bench --json files, metrics
// snapshots, or telemetry JSONL logs — and classifies every shared
// metric as improved / regressed / unchanged against a noise
// threshold, with Mann-Whitney significance and bootstrap confidence
// intervals for metrics that carry raw sample arrays:
//
//   gw-diff --baseline BENCH_throughput.json fresh.json
//   gw-diff old-metrics.json new-metrics.json --noise-threshold=10
//   gw-diff a.events.jsonl b.events.jsonl --json=report.json
//
// Exit codes: 0 = no regressions, 1 = at least one regression beyond
// threshold (suppressed by --warn-only), 2 = unusable input, refused
// comparison (apples-to-oranges metadata; override the environment
// check with --force) or a --json report that cannot be written.
//
//===----------------------------------------------------------------------===//

#include "profiling/RunCompare.h"
#include "support/FileIo.h"
#include "support/StringUtils.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace greenweb;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--baseline] BASELINE [--candidate] CANDIDATE\n"
      "          [--noise-threshold=PCT] [--alpha=A] [--bootstrap-iters=N]\n"
      "          [--json=PATH] [--warn-only] [--strict-meta] [--force]\n"
      "\n"
      "Compares two run artifacts (bench --json, metrics snapshot, or\n"
      "telemetry JSONL) and reports per-metric verdicts. Exits 1 on\n"
      "regression beyond the noise threshold unless --warn-only.\n",
      Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string BaselinePath, CandidatePath, JsonPath;
  prof::CompareOptions Opts;
  bool WarnOnly = false;
  bool Force = false;
  std::vector<std::string> Positional;

  // A malformed number is refused (exit 2), never replaced by its default.
  auto Number = [](std::string_view Value, double &Out) {
    std::optional<double> D = parseDouble(Value);
    if (!D || !std::isfinite(*D))
      return ArgMatch::Malformed;
    Out = *D;
    return ArgMatch::Taken;
  };
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    ArgMatch M = ArgMatch::Taken;
    if (auto V = flagValue(Arg, "--baseline="))
      BaselinePath = *V;
    else if (Arg == "--baseline" && I + 1 < Argc)
      BaselinePath = Argv[++I];
    else if (auto V = flagValue(Arg, "--candidate="))
      CandidatePath = *V;
    else if (Arg == "--candidate" && I + 1 < Argc)
      CandidatePath = Argv[++I];
    else if (auto V = flagValue(Arg, "--noise-threshold="))
      M = Number(*V, Opts.NoiseThresholdPct);
    else if (auto V = flagValue(Arg, "--alpha="))
      M = Number(*V, Opts.Alpha);
    else if (auto V = flagValue(Arg, "--bootstrap-iters="))
      M = countArg(*V, Opts.BootstrapIters);
    else if (auto V = flagValue(Arg, "--json="))
      JsonPath = *V;
    else if (Arg == "--warn-only")
      WarnOnly = true;
    else if (Arg == "--strict-meta")
      Opts.StrictMeta = true;
    else if (Arg == "--force")
      Force = true;
    else if (startsWith(Arg, "--"))
      // Unified CLI contract (shared with gw-inspect): unknown flags,
      // malformed values and unreadable input print usage to stderr
      // and exit 2.
      M = ArgMatch::Unknown;
    else
      Positional.push_back(std::string(Arg));
    if (!acceptArg(M, Arg))
      return usage(Argv[0]);
  }
  for (const std::string &P : Positional) {
    if (BaselinePath.empty())
      BaselinePath = P;
    else if (CandidatePath.empty())
      CandidatePath = P;
    else
      return usage(Argv[0]);
  }
  if (BaselinePath.empty() || CandidatePath.empty())
    return usage(Argv[0]);

  std::string Error;
  auto Base = prof::RunSnapshot::loadFile(BaselinePath, &Error);
  auto Cand = Base ? prof::RunSnapshot::loadFile(CandidatePath, &Error)
                   : std::nullopt;
  if (!Cand) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return usage(Argv[0]);
  }

  prof::CompareResult R = prof::compareRuns(*Base, *Cand, Opts);
  if (!R.comparable() && Force &&
      R.MetaError.find("schema versions differ") == std::string::npos) {
    // --force overrides environment refusals but never schema ones.
    std::fprintf(stderr, "warning: %s (continuing under --force)\n",
                 R.MetaError.c_str());
    prof::CompareOptions Relaxed = Opts;
    Relaxed.StrictMeta = false;
    R = prof::compareRuns(*Base, *Cand, Relaxed);
  }

  // The governor tag makes ablation artifacts self-describing: a
  // baseline/candidate pair reads as "GreenWeb-I vs Predictive-I"
  // without decoding file names.
  auto MetaLine = [](const prof::RunSnapshot &S) {
    if (!S.HasMeta)
      return std::string(" (no metadata header)");
    std::string Line = formatString(
        " (commit %s, %s, %s, %u threads", S.Meta.GitCommit.c_str(),
        S.Meta.BuildType.c_str(), S.Meta.Compiler.c_str(),
        S.Meta.HardwareThreads);
    if (!S.Meta.Governor.empty())
      Line += formatString(", governor %s", S.Meta.Governor.c_str());
    Line += ")";
    return Line;
  };
  std::printf("baseline:  %s%s\n", BaselinePath.c_str(),
              MetaLine(*Base).c_str());
  std::printf("candidate: %s%s\n\n", CandidatePath.c_str(),
              MetaLine(*Cand).c_str());

  std::string Report = prof::formatCompareReport(R, Opts);
  std::fputs(Report.c_str(), stdout);

  if (!JsonPath.empty()) {
    // Exit 1 already means "regressed", so a lost report exits 2.
    if (!writeFile(JsonPath, prof::compareReportJson(R, Opts), &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
    std::printf("wrote comparison report to %s\n", JsonPath.c_str());
  }

  if (!R.comparable())
    return 2;
  if (R.hasRegressions()) {
    std::printf("%s: %zu metric(s) regressed beyond %.1f%%\n",
                WarnOnly ? "warning" : "FAIL", R.Regressed,
                Opts.NoiseThresholdPct);
    return WarnOnly ? 0 : 1;
  }
  return 0;
}
