//===- bench/bench_fig9_micro.cpp - Fig. 9 ---------------------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Regenerates Fig. 9: microbenchmark results. For each application's
// primitive interaction (Table 3 left half), reports
//   (a) energy consumption of GreenWeb-I and GreenWeb-U normalized to
//       Perf (Fig. 9a; paper averages: 31.9% and 78.0% savings), and
//   (b) additional QoS violations on top of Perf under the matching
//       scenario targets (Fig. 9b; paper averages: ~1.3% / ~1.2%, with
//       the single-type outliers caused by min-frequency profiling runs
//       and the Cnet/W3Schools usable-mode surges).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/Statistics.h"

using namespace greenweb;
using bench::ResultCache;

int main(int Argc, char **Argv) {
  bench::Harness Run("bench_fig9_micro", Argc, Argv);
  bench::banner("Fig. 9: microbenchmarking results",
                "Energy normalized to Perf (9a) and QoS violations on top "
                "of Perf (9b), Sec. 7.2");

  ResultCache Cache(Run);
  TablePrinter Energy("Fig. 9a: energy normalized to Perf (lower is "
                      "better)");
  Energy.row()
      .cell("Application")
      .cell("QoS Type")
      .cell("GreenWeb-I")
      .cell("GreenWeb-U");
  TablePrinter Violations(
      "Fig. 9b: QoS violations on top of Perf (percentage points)");
  Violations.row()
      .cell("Application")
      .cell("QoS Type")
      .cell("GreenWeb-I (+%)")
      .cell("GreenWeb-U (+%)");

  std::vector<double> SavingsI, SavingsU, ViolI, ViolU;
  for (const std::string &Name : allAppNames()) {
    AppDefinition App = makeApp(Name, 1);
    const ExperimentResult &Perf =
        Cache.get(Name, governors::Perf, ExperimentMode::Micro);
    const ExperimentResult &GwI =
        Cache.get(Name, governors::GreenWebI, ExperimentMode::Micro);
    const ExperimentResult &GwU =
        Cache.get(Name, governors::GreenWebU, ExperimentMode::Micro);

    double NormI = GwI.TotalJoules / Perf.TotalJoules;
    double NormU = GwU.TotalJoules / Perf.TotalJoules;
    SavingsI.push_back(1.0 - NormI);
    SavingsU.push_back(1.0 - NormU);
    Energy.row()
        .cell(Name)
        .cell(qosTypeName(App.MicroType))
        .percentCell(NormI)
        .percentCell(NormU);

    // Scenario-matched violations relative to Perf under the same
    // targets (Perf's violations differ per scenario, Sec. 7.2 note).
    double ExtraI =
        GwI.ViolationPctImperceptible - Perf.ViolationPctImperceptible;
    double ExtraU = GwU.ViolationPctUsable - Perf.ViolationPctUsable;
    ViolI.push_back(ExtraI);
    ViolU.push_back(ExtraU);
    Violations.row()
        .cell(Name)
        .cell(qosTypeName(App.MicroType))
        .cell(formatString("%+.2f", ExtraI))
        .cell(formatString("%+.2f", ExtraU));
  }
  Energy.print();
  Run.Json.table("Energy", Energy);
  std::printf("Average savings vs Perf: GreenWeb-I %.1f%%, GreenWeb-U "
              "%.1f%%   (paper: 31.9%% / 78.0%%)\n\n",
              mean(SavingsI) * 100.0, mean(SavingsU) * 100.0);
  Violations.print();
  Run.Json.table("Violations", Violations);
  std::printf("Average additional violations: GreenWeb-I %+.2f%%, "
              "GreenWeb-U %+.2f%%   (paper: +1.3%% / +1.2%%)\n",
              mean(ViolI), mean(ViolU));
  std::printf("\nShape checks from the paper:\n"
              " * largest I-mode savings on Todo / CamanJS / LZMA-JS "
              "(little-core-only feasible);\n"
              " * continuous apps show a large I-vs-U gap;\n"
              " * single-type apps (MSN/LZMA-JS/BBC) show the largest "
              "I-mode violation bars (profiling runs);\n"
              " * W3Schools/Cnet stand out under usable mode (complexity "
              "surges).\n");
  return 0;
}
