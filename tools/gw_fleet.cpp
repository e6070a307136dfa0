//===- tools/gw_fleet.cpp - checkpointed population runs ------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// gw-fleet expands a JSON fleet plan (apps x governors x seeds x fault
// scenarios x replicas) and runs it in batches over the parallel
// runner, folding every device run into a streaming population
// aggregate:
//
//   gw-fleet --plan=plan.json --jobs=4 --checkpoint=fleet.ckpt
//            --report=fleet.json --progress
//
// Flags:
//   --plan=FILE        the fleet plan document (required)
//   --jobs=N           worker threads per batch (default: hardware)
//   --batch=N          items per batch / checkpoint granularity (64)
//   --checkpoint=FILE  durable checkpoint; written atomically at batch
//                      boundaries, resumable with --resume
//   --checkpoint-every=N  write every N batches (default 1)
//   --resume           load the checkpoint and skip completed batches
//   --max-batches=N    stop after N batches this invocation (testing)
//   --report=FILE      write the final fleet report JSON here
//   --features=FILE    export the labeled training feature table (one
//                      JSONL row per annotated frame; gw-train input)
//   --progress         live TTY-aware progress meter on stderr
//
// The final report is byte-identical whether the run was interrupted
// and resumed or ran straight through, and `gw-inspect <ckpt> fleet`
// re-derives it offline byte-for-byte — see docs/OBSERVABILITY.md.
//
//===----------------------------------------------------------------------===//

#include "support/FileIo.h"
#include "support/StringUtils.h"
#include "workloads/FleetRunner.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>

using namespace greenweb;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --plan=FILE [--jobs=N] [--batch=N] "
               "[--checkpoint=FILE [--resume] [--checkpoint-every=N]] "
               "[--max-batches=N] [--report=FILE] [--features=FILE] "
               "[--progress]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string PlanPath, ReportPath;
  FleetRunOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    ArgMatch M = ArgMatch::Taken;
    if (auto V = flagValue(Arg, "--plan="))
      PlanPath = *V;
    else if (auto V = flagValue(Arg, "--jobs="))
      M = countArg(*V, Opts.Jobs);
    else if (auto V = flagValue(Arg, "--batch="))
      M = countArg(*V, Opts.BatchSize);
    else if (auto V = flagValue(Arg, "--checkpoint-every="))
      M = countArg(*V, Opts.CheckpointEveryBatches);
    else if (auto V = flagValue(Arg, "--checkpoint="))
      Opts.CheckpointPath = *V;
    else if (auto V = flagValue(Arg, "--max-batches="))
      M = countArg(*V, Opts.MaxBatches);
    else if (auto V = flagValue(Arg, "--report="))
      ReportPath = *V;
    else if (auto V = flagValue(Arg, "--features="))
      Opts.FeaturesPath = *V;
    else if (Arg == "--resume")
      Opts.Resume = true;
    else if (Arg == "--progress")
      Opts.Progress = true;
    else
      M = ArgMatch::Unknown;
    if (!acceptArg(M, Arg))
      return usage(Argv[0]);
  }
  if (PlanPath.empty()) {
    std::fprintf(stderr, "error: --plan= is required\n");
    return usage(Argv[0]);
  }

  std::string Text, Error;
  FleetPlan Plan;
  if (!readFile(PlanPath, Text, &Error) ||
      !FleetPlan::parse(Text, Plan, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return usage(Argv[0]);
  }
  std::fprintf(stderr,
               "fleet '%s': %llu items (%zu apps x %zu governors x %zu "
               "seeds x %zu scenarios x %u replicas), batch %llu\n",
               Plan.Name.c_str(),
               static_cast<unsigned long long>(Plan.items()),
               Plan.Apps.size(), Plan.Governors.size(), Plan.Seeds.size(),
               Plan.Scenarios.size(), unsigned(Plan.Replicas),
               static_cast<unsigned long long>(
                   Opts.BatchSize ? Opts.BatchSize : 64));

  // Host wall time is printed live only — it never enters the
  // checkpoint or report, which is what keeps resume byte-exact.
  auto Begin = std::chrono::steady_clock::now();
  FleetRunSummary Summary;
  if (!runFleet(Plan, Opts, Summary, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Begin)
                       .count();
  std::fprintf(stderr,
               "ran %llu item(s), skipped %llu already-checkpointed, "
               "in %.2f s host time\n",
               static_cast<unsigned long long>(Summary.ItemsRun),
               static_cast<unsigned long long>(Summary.ItemsSkipped),
               Seconds);

  if (!Summary.Complete) {
    std::fprintf(stderr,
                 "stopped at a batch boundary with %llu/%llu items done; "
                 "re-run with --resume to continue\n",
                 static_cast<unsigned long long>(Summary.Report.ItemsDone),
                 static_cast<unsigned long long>(
                     Summary.Report.ItemsTotal));
    return 0;
  }

  std::printf("%s", Summary.Report.format().c_str());
  if (!ReportPath.empty()) {
    if (!writeFile(ReportPath, Summary.Report.toJson() + "\n", &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote fleet report to %s\n", ReportPath.c_str());
  }
  return 0;
}
