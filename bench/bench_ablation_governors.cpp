//===- bench/bench_ablation_governors.cpp - ablation A4 --------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Ablation A4: the full governor sweep. Beyond the paper's Perf and
// Interactive baselines, the classic Ondemand and Powersave policies
// bracket the design space: Powersave is the energy floor with heavy
// violations; Ondemand reacts more slowly than Interactive; GreenWeb
// exploits the QoS annotations to land near Powersave's energy while
// holding violations near Perf's.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/Statistics.h"

using namespace greenweb;

int main(int Argc, char **Argv) {
  bench::Harness Run("bench_ablation_governors", Argc, Argv);
  bench::banner("Ablation A4: governor sweep",
                "Perf / Interactive / Ondemand / Powersave / GreenWeb");

  const char *Govs[] = {governors::Perf, governors::Interactive,
                        governors::Ondemand, governors::Powersave,
                        governors::GreenWebI, governors::GreenWebU};
  const char *Apps[] = {"MSN", "Goo.ne.jp", "Paper.js", "CamanJS"};

  for (const char *App : Apps) {
    TablePrinter Table(formatString("%s (full interaction)", App));
    Table.row()
        .cell("Governor")
        .cell("Energy (mJ)")
        .cell("vs Perf")
        .cell("Viol-I (%)")
        .cell("Viol-U (%)")
        .cell("Switches");
    double PerfJ = 0.0;
    for (const char *Gov : Govs) {
      ExperimentConfig C;
      C.AppName = App;
      C.GovernorName = Gov;
      ExperimentResult R = runExperiment(C);
      if (Gov == std::string(governors::Perf))
        PerfJ = R.TotalJoules;
      Table.row()
          .cell(Gov)
          .cell(R.TotalJoules * 1e3, 1)
          .cell(bench::percentOf(R.TotalJoules, PerfJ))
          .cell(R.ViolationPctImperceptible, 2)
          .cell(R.ViolationPctUsable, 2)
          .cell(int64_t(R.FreqSwitches + R.Migrations));
    }
    Table.print();
    Run.Json.table("Table", Table);
    std::printf("\n");
  }
  std::printf("Expected shape: energy Powersave < GreenWeb-U <= "
              "GreenWeb-I < Ondemand/Interactive < Perf, with Powersave "
              "alone showing large imperceptible-scenario violations.\n");
  return 0;
}
