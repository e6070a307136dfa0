//===- examples/chaos_evaluation.cpp - fault-injection evaluation --------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Runs the named fault scenarios (see FaultPlan::scenario) against one
// (app, governor) pair and reports the QoS/energy footprint of each
// fault family, with and without the runtime's graceful-degradation
// watchdog:
//
//   chaos_evaluation                       all scenarios, watchdog off+on
//   chaos_evaluation thermal vsync         a subset
//   chaos_evaluation --watchdog=on --json=chaos.json thermal
//                                          machine-readable results
//   chaos_evaluation --soak=25 --seed=100  25 randomized chaos plans
//                                          (nightly CI soak; exit != 0 on
//                                          any crash or script error)
//   chaos_evaluation --soak=25 --jobs=4 --sched=sched.json
//                                          fan the soak over 4 workers
//                                          and export the scheduler trace
//   chaos_evaluation --print-plan=mixed    dump a scenario's JSON plan
//
// Flags: --app=NAME (Cnet), --governor=NAME (GreenWeb-I),
// --watchdog=off|on|both (both), --seed=N (1), --jobs=N (1, soak
// only), plus the shared artifact flags (--log=, --metrics=,
// --trace=, --sched=, --progress). Artifact export and --json require
// a single resolved run per scenario, so they refuse --watchdog=both;
// identical seeds and flags reproduce artifacts byte-for-byte (the CI
// determinism gate relies on this — per-seed soak lines print in seed
// order whatever --jobs is, and the host-time scheduler trace only
// ever goes to the opt-in --sched path).
//
//===----------------------------------------------------------------------===//

#include "faults/FaultPlan.h"
#include "profiling/RunCompare.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "telemetry/SchedTrace.h"
#include "telemetry/Telemetry.h"
#include "workloads/Experiment.h"
#include "workloads/ParallelRunner.h"
#include "workloads/TelemetryArtifacts.h"

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

using namespace greenweb;

namespace {

struct Options {
  /// Cnet is the default chaos workload: its frame-complexity surges
  /// (Sec. 7) give every fault family observable QoS headroom to eat.
  std::string App = "Cnet";
  std::string Governor = governors::GreenWebI;
  std::string Watchdog = "both"; // off | on | both
  uint64_t Seed = 1;
  unsigned Soak = 0;
  /// Soak fan-out width; 1 keeps the historical serial soak behavior
  /// (and its exact stdout) — the per-seed lines are printed in seed
  /// order after the batch either way.
  unsigned Jobs = 1;
  std::string PrintPlan;
  std::string JsonPath;
  std::vector<std::string> Scenarios;
  TelemetryArtifactOptions Artifacts;
};

int usage() {
  std::fprintf(stderr,
               "usage: chaos_evaluation [scenario...] [--app=NAME] "
               "[--governor=NAME]\n"
               "       [--watchdog=off|on|both] [--seed=N] [--json=PATH]\n"
               "       [--soak=N] [--jobs=N] [--print-plan=SCENARIO]\n"
               "       [--log=events.jsonl] [--metrics=metrics.json] "
               "[--trace=trace.json]\n"
               "       [--sched=sched.json] [--progress]\n"
               "scenarios: ");
  for (const std::string &Name : FaultPlan::scenarioNames())
    std::fprintf(stderr, "%s ", Name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

/// One (scenario, watchdog) cell of the evaluation.
struct ChaosCell {
  std::string Scenario;
  bool Watchdog = false;
  double Joules = 0.0;
  double ViolationPct = 0.0;
  uint64_t FaultEvents = 0;
  uint64_t WatchdogTrips = 0;
  uint64_t WatchdogReengages = 0;
  size_t ScriptErrors = 0;
};

GreenWebRuntime::Params watchdogParams() {
  GreenWebRuntime::Params P;
  P.EnableWatchdog = true;
  return P;
}

ChaosCell runCell(const Options &Opts, const std::string &Scenario,
                  const FaultPlan &Plan, bool Watchdog, Telemetry *Tel) {
  ExperimentConfig Config;
  Config.AppName = Opts.App;
  Config.GovernorName = Opts.Governor;
  Config.Seed = Opts.Seed;
  Config.Faults = Plan;
  if (Watchdog)
    Config.RuntimeParams = watchdogParams();
  if (Tel) {
    Config.Tel = Tel;
    Config.MeterSamplePeriod = Duration::milliseconds(1);
  }
  ExperimentResult R = runExperiment(Config);

  ChaosCell Cell;
  Cell.Scenario = Scenario;
  Cell.Watchdog = Watchdog;
  Cell.Joules = R.TotalJoules;
  bool Usable = Opts.Governor == governors::GreenWebU;
  Cell.ViolationPct =
      Usable ? R.ViolationPctUsable : R.ViolationPctImperceptible;
  Cell.FaultEvents = R.Faults.total();
  Cell.WatchdogTrips = R.RuntimeStats.WatchdogTrips;
  Cell.WatchdogReengages = R.RuntimeStats.WatchdogReengages;
  Cell.ScriptErrors = R.ScriptErrors.size();
  return Cell;
}

/// The bench-style JSON document gw-diff consumes: one violation/energy
/// scalar pair per scenario (flat names, so the same flags on a
/// watchdog-off and a watchdog-on run produce directly comparable
/// files).
prof::BenchReport chaosReport(const std::vector<ChaosCell> &Cells) {
  prof::BenchReport Report("chaos_evaluation");
  for (const ChaosCell &C : Cells) {
    Report.scalar("chaos." + C.Scenario + ".violation_pct", C.ViolationPct,
                  "%");
    Report.scalar("chaos." + C.Scenario + ".joules", C.Joules, "J");
  }
  return Report;
}

/// The nightly soak: randomized chaos plans across a seed range, all
/// with the watchdog engaged, fanned over --jobs worker threads (the
/// default 1 runs inline, exactly the historical serial soak). Every
/// seed is an isolated simulation, so the per-seed numbers are
/// identical at any job count, and the lines below always print in
/// seed order after the batch — never completion order. Any crash
/// aborts the process (nonzero by itself); script errors fail the
/// seed, and a soak where *no* plan lands a single injection fails as
/// a whole (the injector is wired out). Zero injections on one seed
/// alone is legitimate — a sparse spike window can miss every callback
/// draw — so it only warns.
int runSoak(const Options &Opts) {
  std::printf("chaos soak: %u randomized plans (seeds %llu..%llu), "
              "%s under %s, watchdog on, %u job%s\n\n",
              Opts.Soak, static_cast<unsigned long long>(Opts.Seed),
              static_cast<unsigned long long>(Opts.Seed + Opts.Soak - 1),
              Opts.App.c_str(), Opts.Governor.c_str(), Opts.Jobs,
              Opts.Jobs == 1 ? "" : "s");
  std::vector<FaultPlan> Plans;
  std::vector<ExperimentConfig> Configs;
  Plans.reserve(Opts.Soak);
  Configs.reserve(Opts.Soak);
  for (unsigned I = 0; I < Opts.Soak; ++I) {
    uint64_t Seed = Opts.Seed + I;
    Plans.push_back(FaultPlan::chaosPlan(Seed));
    ExperimentConfig C;
    C.AppName = Opts.App;
    C.GovernorName = Opts.Governor;
    C.Seed = Seed;
    C.Faults = Plans.back();
    C.RuntimeParams = watchdogParams();
    // DAQ-style meter sampling so meter_noise plans exercise their hot
    // path — the runner's private hubs stand in for the per-seed hub
    // the serial soak used to build.
    C.MeterSamplePeriod = Duration::milliseconds(1);
    Configs.push_back(std::move(C));
  }

  // Metrics-only shared hub: capacity 0 keeps a 25-seed soak from
  // growing 25 full logs, exactly like the old per-seed hubs did.
  Telemetry SharedTel;
  SharedTel.setLogCapacity(0);
  ParallelExperimentOptions POpts;
  POpts.Jobs = Opts.Jobs;
  POpts.SharedTel = &SharedTel;
  POpts.JobLogCapacity = 0;
  SchedTrace Sched;
  if (!Opts.Artifacts.SchedPath.empty())
    POpts.Sched = &Sched;
  SchedProgress Progress;
  if (Opts.Artifacts.Progress)
    POpts.Progress = &Progress;
  POpts.ProgressLabel = "chaos soak";
  POpts.ItemLabel = [&Configs](size_t I) {
    return formatString(
        "seed %llu", static_cast<unsigned long long>(Configs[I].Seed));
  };
  std::vector<ExperimentResult> Results =
      runExperimentsParallel(Configs, POpts);

  unsigned Failures = 0;
  uint64_t TotalInjections = 0;
  bool Usable = Opts.Governor == governors::GreenWebU;
  for (unsigned I = 0; I < Opts.Soak; ++I) {
    const ExperimentResult &R = Results[I];
    uint64_t Seed = Opts.Seed + I;
    double ViolationPct =
        Usable ? R.ViolationPctUsable : R.ViolationPctImperceptible;
    TotalInjections += R.Faults.total();
    bool Ok = R.ScriptErrors.empty();
    std::printf("  seed %-6llu %zu faults -> %6llu injections, "
                "%5.2f%% violations, %.1f mJ, %llu trips%s\n",
                static_cast<unsigned long long>(Seed),
                Plans[I].Faults.size(),
                static_cast<unsigned long long>(R.Faults.total()),
                ViolationPct, R.TotalJoules * 1e3,
                static_cast<unsigned long long>(
                    R.RuntimeStats.WatchdogTrips),
                Ok ? "" : "  FAILED");
    Failures += Ok ? 0 : 1;
  }
  if (POpts.Sched) {
    std::printf("\n%s", SchedReport::fromTrace(Sched).format().c_str());
    writeSchedArtifact(Opts.Artifacts, Sched);
  }
  // --trace=/--log=/--metrics= export from the shared hub: the merged
  // metrics, the sched records, and (with --sched) one Perfetto track
  // per sweep worker spliced into the trace.
  if (Opts.Artifacts.any())
    writeTelemetryArtifacts(Opts.Artifacts, SharedTel, {}, {},
                            POpts.Sched);
  if (TotalInjections == 0) {
    std::printf("\nsoak FAILED: no plan landed a single injection — the "
                "fault injector is not reaching the run\n");
    return 1;
  }
  std::printf("\nsoak %s: %u/%u plans clean, %llu injections total\n",
              Failures ? "FAILED" : "passed", Opts.Soak - Failures,
              Opts.Soak, static_cast<unsigned long long>(TotalInjections));
  return Failures ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  auto Own = [&Opts](std::string_view Arg) {
    if (auto V = flagValue(Arg, "--app="))
      Opts.App = *V;
    else if (auto V = flagValue(Arg, "--governor="))
      Opts.Governor = *V;
    else if (auto V = flagValue(Arg, "--watchdog="))
      Opts.Watchdog = *V;
    else if (auto V = flagValue(Arg, "--seed="))
      return countArg(*V, Opts.Seed);
    else if (auto V = flagValue(Arg, "--soak="))
      return countArg(*V, Opts.Soak);
    else if (auto V = flagValue(Arg, "--jobs="))
      return countArg(*V, Opts.Jobs);
    else if (auto V = flagValue(Arg, "--print-plan="))
      Opts.PrintPlan = *V;
    else if (auto V = flagValue(Arg, "--json="))
      Opts.JsonPath = *V;
    else if (!startsWith(Arg, "--"))
      Opts.Scenarios.emplace_back(Arg);
    else
      return ArgMatch::Unknown;
    return ArgMatch::Taken;
  };
  if (!Opts.Artifacts.parseArgs(Argc, Argv, Own))
    return usage();
  if (Opts.Watchdog != "off" && Opts.Watchdog != "on" &&
      Opts.Watchdog != "both") {
    std::fprintf(stderr, "error: --watchdog takes off|on|both\n");
    return usage();
  }

  if (!Opts.PrintPlan.empty()) {
    std::optional<FaultPlan> Plan =
        FaultPlan::scenario(Opts.PrintPlan, Opts.Seed);
    if (!Plan) {
      std::fprintf(stderr, "error: unknown scenario '%s'\n",
                   Opts.PrintPlan.c_str());
      return usage();
    }
    std::printf("%s\n", Plan->toJson().c_str());
    return 0;
  }

  if (Opts.Soak > 0)
    return runSoak(Opts);
  if (!Opts.Artifacts.SchedPath.empty())
    std::fprintf(stderr, "warning: --sched only traces the --soak "
                         "parallel sweep; no scheduler trace written\n");

  if (Opts.Scenarios.empty())
    Opts.Scenarios = FaultPlan::scenarioNames();
  for (const std::string &Name : Opts.Scenarios)
    if (!FaultPlan::scenario(Name, Opts.Seed)) {
      std::fprintf(stderr, "error: unknown scenario '%s'\n", Name.c_str());
      return usage();
    }

  bool SingleMode = Opts.Watchdog != "both";
  if (!Opts.JsonPath.empty() && !SingleMode) {
    std::fprintf(stderr, "error: --json needs --watchdog=off or on (one "
                         "comparable run per scenario)\n");
    return usage();
  }
  if (Opts.Artifacts.any() &&
      (!SingleMode || Opts.Scenarios.size() != 1)) {
    std::fprintf(stderr, "error: artifact export needs a single scenario "
                         "and --watchdog=off or on\n");
    return usage();
  }

  std::printf("chaos evaluation: %s under %s, seed %llu\n\n",
              Opts.App.c_str(), Opts.Governor.c_str(),
              static_cast<unsigned long long>(Opts.Seed));

  // Artifact runs get an attached hub so the fault windows, injections,
  // watchdog decisions, and energy samples all land in the export —
  // with the online detectors / flight recorder armed when requested.
  std::optional<Telemetry> Tel;
  if (Opts.Artifacts.any()) {
    Tel.emplace();
    Opts.Artifacts.configureHub(*Tel);
  }

  std::vector<ChaosCell> Cells;
  for (const std::string &Name : Opts.Scenarios) {
    FaultPlan Plan = *FaultPlan::scenario(Name, Opts.Seed);
    if (Opts.Watchdog != "on")
      Cells.push_back(runCell(Opts, Name, Plan, /*Watchdog=*/false,
                              Tel ? &*Tel : nullptr));
    if (Opts.Watchdog != "off")
      Cells.push_back(runCell(Opts, Name, Plan, /*Watchdog=*/true,
                              Tel ? &*Tel : nullptr));
  }

  TablePrinter Table;
  Table.row()
      .cell("Scenario")
      .cell("Watchdog")
      .cell("Energy (mJ)")
      .cell("Violations (%)")
      .cell("Fault events")
      .cell("Trips")
      .cell("Re-engages");
  for (const ChaosCell &C : Cells)
    Table.row()
        .cell(C.Scenario)
        .cell(C.Watchdog ? "on" : "off")
        .cell(C.Joules * 1e3, 1)
        .cell(C.ViolationPct, 2)
        .cell(int64_t(C.FaultEvents))
        .cell(int64_t(C.WatchdogTrips))
        .cell(int64_t(C.WatchdogReengages));
  Table.print();

  if (Opts.Watchdog == "both") {
    std::printf("\nWatchdog deltas (violations under faults, on vs off):\n");
    for (size_t I = 0; I + 1 < Cells.size(); I += 2) {
      const ChaosCell &Off = Cells[I], &On = Cells[I + 1];
      std::printf("  %-10s %5.2f%% -> %5.2f%%  (energy %.1f -> %.1f mJ)\n",
                  Off.Scenario.c_str(), Off.ViolationPct, On.ViolationPct,
                  Off.Joules * 1e3, On.Joules * 1e3);
    }
  }

  if (!Opts.JsonPath.empty()) {
    if (!chaosReport(Cells).write(
            Opts.JsonPath, prof::RunMeta::current(Opts.Artifacts.CommandLine)))
      return 1;
    std::printf("wrote %s\n", Opts.JsonPath.c_str());
  }
  if (Tel)
    writeTelemetryArtifacts(Opts.Artifacts, *Tel);
  return 0;
}
