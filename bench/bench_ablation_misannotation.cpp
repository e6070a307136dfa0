//===- bench/bench_ablation_misannotation.cpp - ablation A2 ----------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Ablation A2: defense against mis-annotation (Sec. 8). An adversarial
// page scales every QoS target 20x tighter, which would pin the chip at
// peak performance and waste maximal energy. Two defenses from the
// paper's discussion are evaluated:
//  * clamp-to-defaults: annotation targets are floored at the Table 1
//    defaults for their QoS type;
//  * UAI energy budget: once the page exceeds an energy budget, the
//    clamp engages automatically.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace greenweb;

int main(int Argc, char **Argv) {
  bench::Harness Run("bench_ablation_misannotation", Argc, Argv);
  bench::banner("Ablation A2: mis-annotation defense (UAI)",
                "Sec. 8 'Defense Against Mis-annotation'");

  TablePrinter Table;
  Table.row()
      .cell("Application")
      .cell("Annotation")
      .cell("Defense")
      .cell("Energy (mJ)")
      .cell("vs honest")
      .cell("Clamps");

  for (const char *Name : {"Todo", "Goo.ne.jp", "Amazon"}) {
    ExperimentConfig Honest;
    Honest.AppName = Name;
    Honest.GovernorName = governors::GreenWebU;
    ExperimentResult Baseline = runExperiment(Honest);
    Table.row()
        .cell(Name)
        .cell("honest")
        .cell("-")
        .cell(Baseline.TotalJoules * 1e3, 1)
        .cell("100.0%")
        .cell(int64_t(0));

    // The attack: 20x tighter targets.
    ExperimentConfig Attack = Honest;
    Attack.TargetScale = 0.05;
    ExperimentResult Attacked = runExperiment(Attack);
    Table.row()
        .cell(Name)
        .cell("20x tighter")
        .cell("none")
        .cell(Attacked.TotalJoules * 1e3, 1)
        .cell(bench::percentOf(Attacked.TotalJoules,
                               Baseline.TotalJoules))
        .cell(int64_t(Attacked.RuntimeStats.TargetClampsApplied));

    // Defense 1: clamp targets to the Table 1 defaults.
    ExperimentConfig Clamped = Attack;
    GreenWebRuntime::Params P;
    P.ClampTargetsToDefaults = true;
    Clamped.RuntimeParams = P;
    ExperimentResult Defended = runExperiment(Clamped);
    Table.row()
        .cell(Name)
        .cell("20x tighter")
        .cell("clamp")
        .cell(Defended.TotalJoules * 1e3, 1)
        .cell(bench::percentOf(Defended.TotalJoules,
                               Baseline.TotalJoules))
        .cell(int64_t(Defended.RuntimeStats.TargetClampsApplied));

    // Defense 2: UAI energy budget engages the clamp mid-run.
    ExperimentConfig Budgeted = Attack;
    GreenWebRuntime::Params PB;
    PB.EnergyBudgetJoules = Baseline.TotalJoules * 0.5;
    Budgeted.RuntimeParams = PB;
    ExperimentResult BudgetRun = runExperiment(Budgeted);
    Table.row()
        .cell(Name)
        .cell("20x tighter")
        .cell("energy budget")
        .cell(BudgetRun.TotalJoules * 1e3, 1)
        .cell(bench::percentOf(BudgetRun.TotalJoules,
                               Baseline.TotalJoules))
        .cell(int64_t(BudgetRun.RuntimeStats.TargetClampsApplied));
  }
  Table.print();
  Run.Json.table("Table", Table);
  std::printf("\nExpected shape: the attack inflates energy well above "
              "the honest run; the clamp restores it to near-honest "
              "levels; the budget defense lands in between (the attack "
              "runs unchecked until the budget is consumed).\n");
  return 0;
}
