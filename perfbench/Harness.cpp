//===- perfbench/Harness.cpp - The repository benchmark's harness ---------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// gw-perfbench runs one workload for a fixed host time and reports its
// metrics. perfbench/run.py builds it and turns its result document
// into the benchmark's one-line summary; see perfbench/README.md.
//
//   gw-perfbench --workload=paper_suite|fleet|instrumented [--seed=N]
//                [--seconds=S] [--trace] [--smoke] [--json=PATH]
//                [--scratch=DIR]
//   gw-perfbench --selftest
//
// Run from the repository root (the fleet reads
// examples/models/predictive.json). It repeats passes until S seconds
// have passed; traced, it interleaves untraced passes with
// gw-prof-captured ones and adds the per-layer ledger, the front-end
// probes and the workload's counters.
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"
#include "Metrics.h"
#include "Workloads.h"

#include "profiling/Profiler.h"
#include "profiling/RunCompare.h"
#include "profiling/RunMeta.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

using namespace greenweb;
using namespace greenweb::perfbench;

namespace {

const char *const Usage =
    "usage: gw-perfbench --workload=paper_suite|fleet|instrumented "
    "[--seed=N] [--seconds=S]\n"
    "                    [--trace] [--smoke] [--json=PATH] [--scratch=DIR]\n"
    "       gw-perfbench --selftest\n";

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  bool Smoke = false;
  std::string JsonPath;
  std::string Scratch = ".bench_build/scratch";
  bool SelfTest = false;
};

bool parseArgs(int Argc, char **Argv, Args &A, std::string &Error) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    auto Value = [&](std::string_view Flag, std::string_view &Out) {
      if (!startsWith(Arg, Flag))
        return false;
      Out = Arg.substr(Flag.size());
      return true;
    };
    std::string_view V;
    if (Value("--workload=", V)) {
      A.Workload = std::string(V);
    } else if (Value("--seed=", V)) {
      std::optional<int64_t> N = parseInt(V);
      if (!N || *N < 0) {
        Error = "malformed --seed '" + std::string(V) + "'";
        return false;
      }
      A.Seed = uint64_t(*N);
    } else if (Value("--seconds=", V)) {
      std::optional<double> S = parseDouble(V);
      if (!S || !(*S >= 0.0 && *S <= 3600.0)) {
        Error = "malformed --seconds '" + std::string(V) + "'";
        return false;
      }
      A.Seconds = *S;
    } else if (Value("--json=", V)) {
      A.JsonPath = std::string(V);
    } else if (Value("--scratch=", V)) {
      A.Scratch = std::string(V);
    } else if (Arg == "--trace") {
      A.Trace = true;
    } else if (Arg == "--smoke") {
      A.Smoke = true;
    } else if (Arg == "--selftest") {
      A.SelfTest = true;
    } else {
      Error = "unknown argument '" + std::string(Arg) + "'";
      return false;
    }
  }
  if (!A.SelfTest &&
      std::find(workloadNames().begin(), workloadNames().end(),
                A.Workload) == workloadNames().end()) {
    Error = A.Workload.empty() ? "missing --workload"
                               : "unknown workload '" + A.Workload + "'";
    return false;
  }
  return true;
}

/// The benchmark's own checks of its bookkeeping.
int selfTest() {
  int Failures = 0;
  auto Expect = [&Failures](bool Ok, const char *What) {
    if (!Ok) {
      std::fprintf(stderr, "selftest: FAILED: %s\n", What);
      ++Failures;
    }
  };
  MetricSet M;
  M.add("pass_ms", 2.0, "ms", {1.0, 2.0, 3.0});
  bool Threw = false;
  try {
    M.add("pass_ms", 1.0, "ms");
  } catch (const std::invalid_argument &) {
    Threw = true;
  }
  Expect(Threw, "MetricSet refuses a repeated name");

  Outcome O;
  DigestBook Book;
  O.Attempted = 3;
  Book.check(0, 0x1234, O, "op");
  Book.check(0, 0x1234, O, "op");
  Book.check(0, 0x1235, O, "op");
  Expect(O.Failed == 1 && O.failFrac() == 1.0 / 3.0,
         "a perturbed digest is counted in fail_frac");
  M.add("fail_frac", O.failFrac(), "ratio");

  std::string Json = resultJson("selftest", 1, false, 1, 1, "selftest", M, O);
  std::optional<prof::RunSnapshot> Snap = prof::RunSnapshot::parse(Json);
  const prof::MetricSeries *S = Snap ? Snap->find("pass_ms") : nullptr;
  Expect(S && S->Samples.size() == 3 && S->Unit == "ms",
         "the result document parses as gw-diff input with samples");
  const prof::MetricSeries *F = Snap ? Snap->find("fail_frac") : nullptr;
  Expect(F && F->Value == 1.0 / 3.0 &&
             Json.find("\"failed\": 1,") != std::string::npos,
         "the perturbed digest reaches the result document");

  std::printf("selftest: %s\n", Failures ? "FAILED" : "ok");
  return Failures ? 1 : 0;
}

bool optimizedBuild(const prof::RunMeta &Meta) {
#ifndef __OPTIMIZE__
  return false;
#endif
  return Meta.BuildType == "Release" || Meta.BuildType == "RelWithDebInfo" ||
         Meta.BuildType == "MinSizeRel";
}

/// Runs \p W per \p A; returns the report's tables.
///
/// Every figure is a time the program took in this run. When a pass is
/// several operations on one thread, pass_ms is the fastest pass and
/// op_ms.* the lowest per-pass percentiles: a shared host's slow phases
/// (up to 1.8x, for seconds to a minute) add a second mode to such pass
/// times, and the least-disturbed pass is what repeats between runs.
/// When a pass is one operation on every worker (fleet), the figures
/// are the median and percentiles over the passes: those passes slow
/// down as the process keeps running, and the median keeps that.
/// Set-ups are spread over the whole run, and setup_s is their median.
std::string runWorkload(Workload &W, const Args &A, MetricSet &M,
                        Outcome &Out) {
  const unsigned SetupReps = A.Smoke ? 1 : 9;
  std::vector<double> SetupS;
  auto SetUp = [&] {
    uint64_t T = nowNs();
    W.setup();
    SetupS.push_back(msSince(T) / 1e3);
  };
  SetUp();

  std::vector<double> PassMs, PassP50, PassP90, OpMs, CallMs, TracedCallMs;
  LayerSpans Spans;
  if (A.Trace) {
    prof::reset();
    prof::setSpanRetention(0);
  }
  auto RunPass = [&](bool Traced) {
    if (Traced) {
      W.Spans = &Spans;
      prof::start();
    }
    uint64_t T = nowNs();
    PassTiming P = W.pass(Out);
    double Call = msSince(T);
    if (Traced) {
      prof::stop();
      W.Spans = nullptr;
      TracedCallMs.push_back(Call);
    } else {
      CallMs.push_back(Call);
      PassMs.push_back(P.WallMs);
      PassP50.push_back(percentile(P.OpMs, 50));
      PassP90.push_back(percentile(P.OpMs, 90));
      OpMs.insert(OpMs.end(), P.OpMs.begin(), P.OpMs.end());
    }
    W.verify(Out);
  };
  // Peak RSS is read after two passes: the process keeps growing with
  // every pass it runs, and a fixed amount of work keeps the figure
  // comparable between runs of different speed.
  const uint64_t Start = nowNs();
  const uint64_t Span = uint64_t(A.Seconds * 1e9);
  unsigned Passes = 0;
  double RssMb = 0.0;
  do {
    RunPass(false);
    if (A.Trace)
      RunPass(true);
    if (++Passes == 2)
      RssMb = peakRssMb();
    if (SetupS.size() < SetupReps &&
        nowNs() - Start >= SetupS.size() * Span / SetupReps)
      SetUp();
  } while (!A.Smoke && (Passes < 2 || SetupS.size() < SetupReps ||
                        nowNs() - Start < Span));
  if (RssMb == 0.0)
    RssMb = peakRssMb();

  auto Min = [](const std::vector<double> &V) {
    return *std::min_element(V.begin(), V.end());
  };
  bool OnePerPass = OpMs.size() == PassMs.size();
  double Pass = OnePerPass ? median(PassMs) : Min(PassMs);
  double OpP50 = OnePerPass ? percentile(OpMs, 50) : Min(PassP50);
  double OpP90 = OnePerPass ? percentile(OpMs, 90) : Min(PassP90);
  M.add("setup_s", median(SetupS), "s", SetupS);
  M.add("peak_rss_mb", RssMb, "MB");
  M.add("pass_ms", Pass, "ms", strided(PassMs, 200));
  M.add("op_ms.p50", OpP50, "ms", strided(PassP50, 200));
  M.add("op_ms.p90", OpP90, "ms", strided(PassP90, 200));
  M.add("pass_ms.median", median(PassMs), "ms");
  M.add("op_ms.all_p50", percentile(OpMs, 50), "ms", strided(OpMs, 1000));
  M.add("op_ms.all_p90", percentile(OpMs, 90), "ms");
  M.add("passes", double(PassMs.size()), "count");
  M.add("ops", double(OpMs.size()), "count");
  W.addEndToEnd(Pass, M);
  if (!A.Trace)
    return formatString("pass = %s; op = %s\n", W.passMeaning(),
                        W.opMeaning());

  prof::Profile Profile = prof::collect();
  LedgerInput L;
  L.Profile = &Profile;
  L.Spans = Spans;
  L.TracedPasses = unsigned(TracedCallMs.size());
  std::vector<double> Ratios;
  for (size_t I = 0; I < TracedCallMs.size(); ++I) {
    L.CapacityNs += TracedCallMs[I] * 1e6 * double(W.threads());
    Ratios.push_back(TracedCallMs[I] / CallMs[I]);
  }
  // Each traced pass against the untraced pass just before it.
  L.OverheadPct = 100.0 * (median(Ratios) - 1.0);
  std::string Tables = addLedger(L, M);
  probeLayers(W.pages(), A.Smoke ? 1 : 5, M);
  TraceContext Ctx;
  Ctx.PassMs = Pass;
  Ctx.OpP50Ms = OpP50;
  Ctx.Smoke = A.Smoke;
  W.addTraced(Ctx, M, Out);
  return formatString("pass = %s; op = %s\n\n", W.passMeaning(),
                      W.opMeaning()) +
         Tables;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  std::string Error;
  if (!parseArgs(Argc, Argv, A, Error)) {
    std::fprintf(stderr, "gw-perfbench: %s\n%s", Error.c_str(), Usage);
    return 2;
  }
  if (A.SelfTest)
    return selfTest();

  std::string CommandLine = prof::joinCommandLine(Argc, Argv);
  prof::RunMeta Meta = prof::RunMeta::current(CommandLine);
  if (!optimizedBuild(Meta)) {
    std::fprintf(stderr,
                 "gw-perfbench: refusing to measure a non-optimized build "
                 "(build type '%s'); configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 Meta.BuildType.c_str());
    return 3;
  }
  unsigned Nproc = std::max(1u, std::thread::hardware_concurrency());
  unsigned Jobs = std::min(Nproc, 4u);

  WorkloadOptions Opts;
  Opts.Seed = A.Seed;
  Opts.Jobs = Jobs;
  Opts.ScratchDir = A.Scratch + "/" + A.Workload;
  std::unique_ptr<Workload> W = makeWorkload(A.Workload, Opts);

  MetricSet M;
  Outcome Out;
  std::string Tables;
  try {
    Tables = runWorkload(*W, A, M, Out);
  } catch (const std::exception &E) {
    Out.fail(std::string("workload aborted: ") + E.what());
  }
  Out.Attempted = std::max<uint64_t>(Out.Attempted, Out.Failed);
  M.add("fail_frac", Out.failFrac(), "ratio");

  // Everything above may print artifact chatter; the report follows the
  // marker line, which run.py keys on.
  std::printf("== gw-perfbench report ==\n");
  std::printf("workload %s  seed %llu  trace %d  jobs %u  nproc %u\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Trace ? 1 : 0, Jobs, Nproc);
  std::printf("meta %s\n", Meta.toJsonObject().c_str());
  std::fputs(Tables.c_str(), stdout);
  TablePrinter Table("metrics");
  Table.row().cell("name").cell("value").cell("unit");
  for (const Metric &X : M.all())
    Table.row().cell(X.Name).cell(formatString("%.6g", X.Value)).cell(X.Unit);
  std::fputs(("\n" + Table.render()).c_str(), stdout);
  std::printf("outcome: attempted %llu, failed %llu, fail_frac %.6g, "
              "results digest %016llx\n",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed), Out.failFrac(),
              static_cast<unsigned long long>(W->Digests.combined()));
  for (const std::string &Why : Out.Reasons)
    std::printf("  failed: %s\n", Why.c_str());

  if (!A.JsonPath.empty()) {
    std::string Json = resultJson(A.Workload, A.Seed, A.Trace, Jobs, Nproc,
                                  CommandLine, M, Out);
    std::FILE *F = std::fopen(A.JsonPath.c_str(), "w");
    bool Written =
        F && std::fwrite(Json.data(), 1, Json.size(), F) == Json.size();
    if (F && std::fclose(F) != 0)
      Written = false;
    if (!Written) {
      std::fprintf(stderr, "gw-perfbench: cannot write %s\n",
                   A.JsonPath.c_str());
      return 1;
    }
  }
  return 0;
}
