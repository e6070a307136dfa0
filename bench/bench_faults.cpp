//===- bench/bench_faults.cpp - fault-family QoS/energy deltas -----------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Quantifies each fault family's footprint: one clean run and one run
// per named fault scenario (docs/ROBUSTNESS.md), all under the GreenWeb
// runtime, reporting the QoS-violation and energy deltas the injected
// fault causes. Run with --watchdog to measure the hardened runtime
// instead; --smoke runs a single scenario for the CI bench-smoke label.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "faults/FaultPlan.h"

using namespace greenweb;

namespace {

ExperimentResult runScenario(const std::optional<FaultPlan> &Plan,
                             bool Watchdog) {
  ExperimentConfig C;
  C.AppName = "Cnet";
  C.GovernorName = governors::GreenWebI;
  C.Faults = Plan;
  if (Watchdog) {
    GreenWebRuntime::Params P;
    P.EnableWatchdog = true;
    C.RuntimeParams = P;
  }
  return runExperiment(C);
}

} // namespace

int main(int Argc, char **Argv) {
  bench::Harness Run("bench_faults", Argc, Argv, {"--watchdog", "--smoke"});
  bool Watchdog = Run.has("--watchdog");
  bool Smoke = Run.has("--smoke");
  bench::banner("Fault-family QoS/energy footprint",
                "robustness hardening (docs/ROBUSTNESS.md)");

  std::vector<std::string> Scenarios =
      Smoke ? std::vector<std::string>{"thermal"}
            : FaultPlan::scenarioNames();

  ExperimentResult Clean = runScenario(std::nullopt, Watchdog);
  double CleanViol = Clean.ViolationPctImperceptible;
  double CleanJ = Clean.TotalJoules;

  TablePrinter Table;
  Table.row()
      .cell("Scenario")
      .cell("Violations (%)")
      .cell("d-Violations (pp)")
      .cell("Energy (mJ)")
      .cell("d-Energy (%)")
      .cell("Injections");
  Table.row()
      .cell("(clean)")
      .cell(CleanViol, 2)
      .cell("-")
      .cell(CleanJ * 1e3, 1)
      .cell("-")
      .cell(int64_t(0));
  Run.Json.scalar("faults.clean.violation_pct", CleanViol, "%");
  Run.Json.scalar("faults.clean.joules", CleanJ, "J");

  for (const std::string &Name : Scenarios) {
    ExperimentResult R = runScenario(FaultPlan::scenario(Name), Watchdog);
    double Viol = R.ViolationPctImperceptible;
    Table.row()
        .cell(Name)
        .cell(Viol, 2)
        .cell(Viol - CleanViol, 2)
        .cell(R.TotalJoules * 1e3, 1)
        .cell(CleanJ > 0 ? 100.0 * (R.TotalJoules - CleanJ) / CleanJ : 0.0,
              1)
        .cell(int64_t(R.Faults.total()));
    Run.Json.scalar("faults." + Name + ".violation_pct", Viol, "%");
    Run.Json.scalar("faults." + Name + ".joules", R.TotalJoules, "J");
    Run.Json.scalar("faults." + Name + ".injections", double(R.Faults.total()));
  }
  Table.print();
  Run.Json.table("Table", Table);
  std::printf("\nCnet under GreenWeb-I, watchdog %s. Expected shape: every "
              "fault family costs QoS and/or energy against the clean "
              "run; with --watchdog the violation deltas shrink while "
              "energy rises (the fallback floor trades joules for QoS).\n",
              Watchdog ? "on" : "off");
  return 0;
}
