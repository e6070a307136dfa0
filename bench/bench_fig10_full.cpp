//===- bench/bench_fig10_full.cpp - Fig. 10 --------------------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Regenerates Fig. 10: full-interaction results. For each application's
// Table 3 session,
//   (a) energy of Interactive / GreenWeb-I / GreenWeb-U normalized to
//       Perf, sorted ascending by GreenWeb-I as in the paper's plot
//       (paper: GreenWeb saves 29.2% / 66.0% vs Interactive; Interactive
//       consumes energy close to Perf), and
//   (b/c) QoS violations on top of Perf under the imperceptible and
//       usable scenarios (paper: +0.8% / +0.6%, comparable to
//       Interactive).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/Statistics.h"

#include <algorithm>

using namespace greenweb;
using bench::ResultCache;

int main(int Argc, char **Argv) {
  bench::Harness Run("bench_fig10_full", Argc, Argv);
  bench::banner("Fig. 10: full interaction results",
                "Energy vs Perf/Interactive and QoS violations, Sec. 7.3");

  ResultCache Cache(Run);
  {
    // Warm every sweep cell across --jobs workers (default serial);
    // results and telemetry are identical to serial cell-by-cell runs.
    std::vector<bench::BenchCell> Cells;
    for (const std::string &Name : allAppNames())
      for (const char *Gov : {governors::Perf, governors::Interactive, governors::GreenWebI, governors::GreenWebU})
        Cells.push_back({Name, Gov, ExperimentMode::Full});
    Cache.prefetch(Cells);
  }
  struct Row {
    std::string Name;
    double NormInter, NormI, NormU;
    double ViolInterI, ViolInterU, ViolI, ViolU;
  };
  std::vector<Row> Rows;
  for (const std::string &Name : allAppNames()) {
    const ExperimentResult &Perf =
        Cache.get(Name, governors::Perf, ExperimentMode::Full);
    const ExperimentResult &Inter =
        Cache.get(Name, governors::Interactive, ExperimentMode::Full);
    const ExperimentResult &GwI =
        Cache.get(Name, governors::GreenWebI, ExperimentMode::Full);
    const ExperimentResult &GwU =
        Cache.get(Name, governors::GreenWebU, ExperimentMode::Full);
    Rows.push_back(
        {Name, Inter.TotalJoules / Perf.TotalJoules,
         GwI.TotalJoules / Perf.TotalJoules,
         GwU.TotalJoules / Perf.TotalJoules,
         Inter.ViolationPctImperceptible - Perf.ViolationPctImperceptible,
         Inter.ViolationPctUsable - Perf.ViolationPctUsable,
         GwI.ViolationPctImperceptible - Perf.ViolationPctImperceptible,
         GwU.ViolationPctUsable - Perf.ViolationPctUsable});
  }
  // The paper sorts Fig. 10a ascending by GreenWeb-I.
  std::sort(Rows.begin(), Rows.end(),
            [](const Row &A, const Row &B) { return A.NormI < B.NormI; });

  TablePrinter Energy("Fig. 10a: energy normalized to Perf (sorted by "
                      "GreenWeb-I)");
  Energy.row()
      .cell("Application")
      .cell("Interactive")
      .cell("GreenWeb-I")
      .cell("GreenWeb-U");
  std::vector<double> SaveI, SaveU, NormInter;
  for (const Row &R : Rows) {
    Energy.row()
        .cell(R.Name)
        .percentCell(R.NormInter)
        .percentCell(R.NormI)
        .percentCell(R.NormU);
    SaveI.push_back(1.0 - R.NormI / R.NormInter);
    SaveU.push_back(1.0 - R.NormU / R.NormInter);
    NormInter.push_back(R.NormInter);
  }
  Energy.print();
  Run.Json.table("Energy", Energy);
  std::printf(
      "Average energy savings vs Interactive: GreenWeb-I %.1f%%, "
      "GreenWeb-U %.1f%%   (paper: 29.2%% / 66.0%%)\n"
      "Interactive averages %.1f%% of Perf (paper: close to Perf; our "
      "replayed sessions have more idle between inputs, see "
      "EXPERIMENTS.md).\n\n",
      mean(SaveI) * 100.0, mean(SaveU) * 100.0, mean(NormInter) * 100.0);

  TablePrinter Viol("Fig. 10b/10c: QoS violations on top of Perf "
                    "(percentage points)");
  Viol.row()
      .cell("Application")
      .cell("Interactive (I)")
      .cell("GreenWeb-I (I)")
      .cell("Interactive (U)")
      .cell("GreenWeb-U (U)");
  std::vector<double> VI, VU;
  for (const Row &R : Rows) {
    Viol.row()
        .cell(R.Name)
        .cell(formatString("%+.2f", R.ViolInterI))
        .cell(formatString("%+.2f", R.ViolI))
        .cell(formatString("%+.2f", R.ViolInterU))
        .cell(formatString("%+.2f", R.ViolU));
    VI.push_back(R.ViolI);
    VU.push_back(R.ViolU);
  }
  Viol.print();
  Run.Json.table("Viol", Viol);
  std::printf("Average additional violations: GreenWeb-I %+.2f%%, "
              "GreenWeb-U %+.2f%%   (paper: +0.8%% / +0.6%%)\n",
              mean(VI), mean(VU));
  return 0;
}
