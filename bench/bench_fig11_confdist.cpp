//===- bench/bench_fig11_confdist.cpp - Fig. 11 ----------------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Regenerates Fig. 11: the ACMP configuration time distribution under
// GreenWeb-I (11a) and GreenWeb-U (11b) for each full-interaction
// session. The paper's observations: the imperceptible scenario biases
// toward the big (A15) cluster and higher frequencies far more than the
// usable scenario, which lives mostly on the little (A7) cluster.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/Statistics.h"

using namespace greenweb;
using bench::ResultCache;

namespace {

struct Distribution {
  double LittlePct = 0.0;
  double BigLowPct = 0.0;  // A15 at 800-1200 MHz
  double BigHighPct = 0.0; // A15 at 1300-1800 MHz
  double MeanBigMHz = 0.0; // busy-weighted mean A15 frequency
};

Distribution summarize(const ExperimentResult &R) {
  Distribution D;
  double Total = 0.0, Little = 0.0, BigLow = 0.0, BigHigh = 0.0;
  double BigTime = 0.0, BigWeighted = 0.0;
  for (const auto &[Config, T] : R.ConfigDistribution) {
    double S = T.secs();
    Total += S;
    if (Config.Core == CoreKind::Little) {
      Little += S;
      continue;
    }
    BigTime += S;
    BigWeighted += S * Config.FreqMHz;
    if (Config.FreqMHz <= 1200)
      BigLow += S;
    else
      BigHigh += S;
  }
  if (Total > 0.0) {
    D.LittlePct = 100.0 * Little / Total;
    D.BigLowPct = 100.0 * BigLow / Total;
    D.BigHighPct = 100.0 * BigHigh / Total;
  }
  D.MeanBigMHz = BigTime > 0.0 ? BigWeighted / BigTime : 0.0;
  return D;
}

} // namespace

int main(int Argc, char **Argv) {
  bench::Harness Run("bench_fig11_confdist", Argc, Argv);
  bench::banner("Fig. 11: architecture configuration distribution",
                "Time share per <core, frequency> under GreenWeb-I (11a) "
                "and GreenWeb-U (11b), Sec. 7.3");

  ResultCache Cache(Run);
  {
    // Warm every sweep cell across --jobs workers (default serial);
    // results and telemetry are identical to serial cell-by-cell runs.
    std::vector<bench::BenchCell> Cells;
    for (const std::string &Name : allAppNames())
      for (const char *Gov : {governors::GreenWebI, governors::GreenWebU})
        Cells.push_back({Name, Gov, ExperimentMode::Full});
    Cache.prefetch(Cells);
  }
  for (const char *Gov : {governors::GreenWebI, governors::GreenWebU}) {
    TablePrinter Table(formatString(
        "Fig. 11%s: %s", Gov == std::string(governors::GreenWebI) ? "a"
                                                                  : "b",
        Gov));
    Table.row()
        .cell("Application")
        .cell("A7 (%)")
        .cell("A15 800-1200 (%)")
        .cell("A15 1300-1800 (%)")
        .cell("mean A15 MHz");
    std::vector<double> BigShare;
    for (const std::string &Name : allAppNames()) {
      Distribution D =
          summarize(Cache.get(Name, Gov, ExperimentMode::Full));
      BigShare.push_back(D.BigLowPct + D.BigHighPct);
      Table.row()
          .cell(Name)
          .cell(D.LittlePct, 1)
          .cell(D.BigLowPct, 1)
          .cell(D.BigHighPct, 1)
          .cell(D.MeanBigMHz, 0);
    }
    Table.print();
    Run.Json.table("Table", Table);
    std::printf("Mean A15 time share under %s: %.1f%%\n\n", Gov,
                mean(BigShare));
  }
  std::printf("Shape check: GreenWeb-I spends far more time on the A15 "
              "cluster than GreenWeb-U (paper Fig. 11a vs 11b), because "
              "the imperceptible targets often need big-core "
              "configurations while the usable targets fit the A7.\n");
  return 0;
}
