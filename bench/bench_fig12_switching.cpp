//===- bench/bench_fig12_switching.cpp - Fig. 12 ---------------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Regenerates Fig. 12: the configuration-switching frequency of the
// GreenWeb runtime, decomposed into CPU frequency changes and cluster
// migrations, expressed per frame produced. The paper's observations:
// modest switching overall (~20%), GreenWeb-I generally switches more
// than GreenWeb-U (a tighter target is more sensitive to frame
// variance), and frequency changes dominate migrations.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/Statistics.h"

using namespace greenweb;
using bench::ResultCache;

int main(int Argc, char **Argv) {
  bench::Harness Run("bench_fig12_switching", Argc, Argv);
  bench::banner("Fig. 12: execution configuration switching frequency",
                "Switches per frame, split into frequency changes and "
                "core migrations (Sec. 7.3)");

  ResultCache Cache(Run);
  TablePrinter Table;
  Table.row()
      .cell("Application")
      .cell("GW-I freq/frame")
      .cell("GW-I mig/frame")
      .cell("GW-I total")
      .cell("GW-U freq/frame")
      .cell("GW-U mig/frame")
      .cell("GW-U total");

  std::vector<double> TotalI, TotalU, FreqShare;
  for (const std::string &Name : allAppNames()) {
    const ExperimentResult &GwI =
        Cache.get(Name, governors::GreenWebI, ExperimentMode::Full);
    const ExperimentResult &GwU =
        Cache.get(Name, governors::GreenWebU, ExperimentMode::Full);

    auto PerFrame = [](uint64_t Count, uint64_t Frames) {
      return Frames == 0 ? 0.0 : double(Count) / double(Frames);
    };
    // The chip counts a cross-cluster change as both a migration and a
    // frequency switch; report the frequency-only share separately.
    double FreqI = PerFrame(GwI.FreqSwitches - GwI.Migrations, GwI.Frames);
    double MigI = PerFrame(GwI.Migrations, GwI.Frames);
    double FreqU = PerFrame(GwU.FreqSwitches - GwU.Migrations, GwU.Frames);
    double MigU = PerFrame(GwU.Migrations, GwU.Frames);
    TotalI.push_back(FreqI + MigI);
    TotalU.push_back(FreqU + MigU);
    if (FreqI + MigI > 0)
      FreqShare.push_back(FreqI / (FreqI + MigI));

    Table.row()
        .cell(Name)
        .percentCell(FreqI)
        .percentCell(MigI)
        .percentCell(FreqI + MigI)
        .percentCell(FreqU)
        .percentCell(MigU)
        .percentCell(FreqU + MigU);
  }
  Table.print();
  Run.Json.table("Table", Table);
  std::printf("\nMean switching per frame: GreenWeb-I %.1f%%, GreenWeb-U "
              "%.1f%%   (paper: ~20%% on average, I > U)\n",
              mean(TotalI) * 100.0, mean(TotalU) * 100.0);
  std::printf("Frequency-only changes are %.0f%% of all switches on "
              "average (paper: frequency changes dwarf migrations).\n",
              mean(FreqShare) * 100.0);
  std::printf("Switch penalties are 100 us (DVFS) and 20 us (migration) "
              "against millisecond frames, so the overhead is minimal "
              "(Sec. 7.3).\n");
  return 0;
}
