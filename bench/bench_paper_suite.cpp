//===- bench/bench_paper_suite.cpp - Table 3 and Figs. 9-12 ---------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Regenerates the paper's evaluation (Sec. 7) from one sweep under its
// three-seed median protocol (Sec. 7.1): 12 apps x {micro x Perf /
// GreenWeb-I / GreenWeb-U, full x Perf / Interactive / GreenWeb-I /
// GreenWeb-U}, 84 cells run once across --jobs workers. It then prints
//
//   Table 3  the twelve applications: microbenchmark interaction / QoS
//            category and the measured full-interaction statistics
//            (session time, event count, annotation percentage) of the
//            Perf run;
//   Fig. 9   microbenchmarks: (a) GreenWeb-I / GreenWeb-U energy
//            normalized to Perf (paper: 31.9% / 78.0% savings) and (b)
//            additional QoS violations on top of Perf under the
//            matching scenario targets (paper: ~1.3% / ~1.2%);
//   Fig. 10  full interactions: (a) Interactive / GreenWeb-I /
//            GreenWeb-U energy normalized to Perf, sorted by GreenWeb-I
//            (paper: GreenWeb saves 29.2% / 66.0% vs Interactive) and
//            (b/c) violations on top of Perf (paper: +0.8% / +0.6%);
//   Fig. 11  the ACMP configuration time distribution under GreenWeb-I
//            (11a) and GreenWeb-U (11b): I biases to the A15, U to the A7;
//   Fig. 12  configuration switches per frame, split into frequency
//            changes and cluster migrations (paper: ~20%, I > U).
//
// --json=PATH writes every table, named by figure (table3, fig9a, ...),
// and every printed average as a named scalar (fig10.*, table3.*, ...).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/Statistics.h"
#include "workloads/Apps.h"
#include "workloads/ParallelRunner.h"

#include <algorithm>

using namespace greenweb;

namespace {

/// One app's seven sweep cells (medians of seeds 1, 2, 3).
struct AppRuns {
  std::string Name;
  ExperimentResult MicroPerf, MicroI, MicroU;
  ExperimentResult Perf, Interactive, GwI, GwU;
};

struct SweepCell {
  ExperimentMode Mode;
  const char *Governor;
  ExperimentResult AppRuns::*Slot;
};

/// Exactly the cells the sections below read.
constexpr SweepCell Sweep[] = {
    {ExperimentMode::Micro, governors::Perf, &AppRuns::MicroPerf},
    {ExperimentMode::Micro, governors::GreenWebI, &AppRuns::MicroI},
    {ExperimentMode::Micro, governors::GreenWebU, &AppRuns::MicroU},
    {ExperimentMode::Full, governors::Perf, &AppRuns::Perf},
    {ExperimentMode::Full, governors::Interactive, &AppRuns::Interactive},
    {ExperimentMode::Full, governors::GreenWebI, &AppRuns::GwI},
    {ExperimentMode::Full, governors::GreenWebU, &AppRuns::GwU},
};

/// Runs every sweep cell once, in parallel across the harness's --jobs
/// workers (Harness::sweepOptions).
std::vector<AppRuns> runSweep(bench::Harness &Run) {
  std::vector<ExperimentConfig> Configs;
  for (const std::string &Name : allAppNames())
    for (const SweepCell &Cell : Sweep) {
      ExperimentConfig Config;
      Config.AppName = Name;
      Config.GovernorName = Cell.Governor;
      Config.Mode = Cell.Mode;
      Configs.push_back(std::move(Config));
    }
  ParallelExperimentOptions Opts = Run.sweepOptions();
  Opts.MedianSeeds = {1, 2, 3};
  std::vector<ExperimentResult> Results =
      runExperimentsParallel(Configs, Opts);

  std::vector<AppRuns> Apps;
  size_t I = 0;
  for (const std::string &Name : allAppNames()) {
    AppRuns &App = Apps.emplace_back();
    App.Name = Name;
    for (const SweepCell &Cell : Sweep)
      App.*Cell.Slot = std::move(Results[I++]);
  }
  return Apps;
}

void table3(const std::vector<AppRuns> &Apps, prof::BenchReport &Json) {
  bench::banner("Table 3: evaluation applications",
                "Micro-benchmarking and full-interaction characteristics "
                "(Sec. 7.1, Table 3)");
  TablePrinter Table =
      bench::table({"Application", "Interaction", "QoS Type", "QoS Target",
                    "Time", "Events", "Annotation"});

  double SumTime = 0.0;
  uint64_t SumEvents = 0;
  for (const AppRuns &Runs : Apps) {
    AppDefinition App = makeApp(Runs.Name, 1);
    std::string Target;
    if (App.MicroTarget.Imperceptible >= Duration::seconds(1))
      Target = formatString("(%.0f, %.0f) s",
                            App.MicroTarget.Imperceptible.secs(),
                            App.MicroTarget.Usable.secs());
    else
      Target = formatString("(%.1f, %.1f) ms",
                            App.MicroTarget.Imperceptible.millis(),
                            App.MicroTarget.Usable.millis());

    double Secs = App.Full.SessionLength.secs();
    SumTime += Secs;
    SumEvents += Runs.Perf.InputEvents;

    Table.row()
        .cell(Runs.Name)
        .cell(interactionKindName(App.MicroInteraction))
        .cell(qosTypeName(App.MicroType))
        .cell(Target)
        .cell(formatString("%d:%02d", int(Secs) / 60, int(Secs) % 60))
        .cell(int64_t(Runs.Perf.InputEvents))
        .cell(formatString("%.1f%%", Runs.Perf.AnnotationPct));
  }
  Table.print();
  Json.table("table3", Table);

  double MeanTime = SumTime / 12.0, MeanEvents = double(SumEvents) / 12.0;
  std::printf("\nAverages: %.0f s per session, %.0f events per session "
              "(paper: ~43 s, ~94 events).\n",
              MeanTime, MeanEvents);
  Json.scalar("table3.mean_session_s", MeanTime, "s");
  Json.scalar("table3.mean_events", MeanEvents);
}

void fig9(const std::vector<AppRuns> &Apps, prof::BenchReport &Json) {
  bench::banner("Fig. 9: microbenchmarking results",
                "Energy normalized to Perf (9a) and QoS violations on top "
                "of Perf (9b), Sec. 7.2");
  TablePrinter Energy = bench::table(
      {"Application", "QoS Type", "GreenWeb-I", "GreenWeb-U"},
      "Fig. 9a: energy normalized to Perf (lower is better)");
  TablePrinter Violations = bench::table(
      {"Application", "QoS Type", "GreenWeb-I (+%)", "GreenWeb-U (+%)"},
      "Fig. 9b: QoS violations on top of Perf (percentage points)");

  std::vector<double> SavingsI, SavingsU, ViolI, ViolU;
  for (const AppRuns &Runs : Apps) {
    AppDefinition App = makeApp(Runs.Name, 1);
    const ExperimentResult &Perf = Runs.MicroPerf;
    double NormI = Runs.MicroI.TotalJoules / Perf.TotalJoules;
    double NormU = Runs.MicroU.TotalJoules / Perf.TotalJoules;
    SavingsI.push_back(1.0 - NormI);
    SavingsU.push_back(1.0 - NormU);
    Energy.row()
        .cell(Runs.Name)
        .cell(qosTypeName(App.MicroType))
        .percentCell(NormI)
        .percentCell(NormU);

    // Scenario-matched violations relative to Perf under the same
    // targets (Perf's violations differ per scenario, Sec. 7.2 note).
    double ExtraI =
        Runs.MicroI.ViolationPctImperceptible - Perf.ViolationPctImperceptible;
    double ExtraU = Runs.MicroU.ViolationPctUsable - Perf.ViolationPctUsable;
    ViolI.push_back(ExtraI);
    ViolU.push_back(ExtraU);
    Violations.row()
        .cell(Runs.Name)
        .cell(qosTypeName(App.MicroType))
        .cell(formatString("%+.2f", ExtraI))
        .cell(formatString("%+.2f", ExtraU));
  }
  Energy.print();
  Json.table("fig9a", Energy);
  std::printf("Average savings vs Perf: GreenWeb-I %.1f%%, GreenWeb-U "
              "%.1f%%   (paper: 31.9%% / 78.0%%)\n\n",
              mean(SavingsI) * 100.0, mean(SavingsU) * 100.0);
  Json.scalar("fig9.saving_vs_perf_pct.gw_i", mean(SavingsI) * 100.0, "%");
  Json.scalar("fig9.saving_vs_perf_pct.gw_u", mean(SavingsU) * 100.0, "%");
  Violations.print();
  Json.table("fig9b", Violations);
  std::printf("Average additional violations: GreenWeb-I %+.2f%%, "
              "GreenWeb-U %+.2f%%   (paper: +1.3%% / +1.2%%)\n",
              mean(ViolI), mean(ViolU));
  Json.scalar("fig9.extra_violation_pct.gw_i", mean(ViolI), "%");
  Json.scalar("fig9.extra_violation_pct.gw_u", mean(ViolU), "%");
  std::printf("\nShape checks from the paper:\n"
              " * largest I-mode savings on Todo / CamanJS / LZMA-JS "
              "(little-core-only feasible);\n"
              " * continuous apps show a large I-vs-U gap;\n"
              " * single-type apps (MSN/LZMA-JS/BBC) show the largest "
              "I-mode violation bars (profiling runs);\n"
              " * W3Schools/Cnet stand out under usable mode (complexity "
              "surges).\n");
}

void fig10(const std::vector<AppRuns> &Apps, prof::BenchReport &Json) {
  bench::banner("Fig. 10: full interaction results",
                "Energy vs Perf/Interactive and QoS violations, Sec. 7.3");
  struct Row {
    std::string Name;
    double NormInter, NormI, NormU;
    double ViolInterI, ViolInterU, ViolI, ViolU;
  };
  std::vector<Row> Rows;
  for (const AppRuns &R : Apps) {
    const ExperimentResult &Perf = R.Perf, &Inter = R.Interactive;
    Rows.push_back(
        {R.Name, Inter.TotalJoules / Perf.TotalJoules,
         R.GwI.TotalJoules / Perf.TotalJoules,
         R.GwU.TotalJoules / Perf.TotalJoules,
         Inter.ViolationPctImperceptible - Perf.ViolationPctImperceptible,
         Inter.ViolationPctUsable - Perf.ViolationPctUsable,
         R.GwI.ViolationPctImperceptible - Perf.ViolationPctImperceptible,
         R.GwU.ViolationPctUsable - Perf.ViolationPctUsable});
  }
  // The paper sorts Fig. 10a ascending by GreenWeb-I.
  std::sort(Rows.begin(), Rows.end(),
            [](const Row &A, const Row &B) { return A.NormI < B.NormI; });

  TablePrinter Energy = bench::table(
      {"Application", "Interactive", "GreenWeb-I", "GreenWeb-U"},
      "Fig. 10a: energy normalized to Perf (sorted by GreenWeb-I)");
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
  Json.table("fig10a", Energy);
  std::printf(
      "Average energy savings vs Interactive: GreenWeb-I %.1f%%, "
      "GreenWeb-U %.1f%%   (paper: 29.2%% / 66.0%%)\n"
      "Interactive averages %.1f%% of Perf (paper: close to Perf; our "
      "replayed sessions have more idle between inputs, see "
      "EXPERIMENTS.md).\n\n",
      mean(SaveI) * 100.0, mean(SaveU) * 100.0, mean(NormInter) * 100.0);
  Json.scalar("fig10.saving_vs_interactive_pct.gw_i", mean(SaveI) * 100.0,
              "%");
  Json.scalar("fig10.saving_vs_interactive_pct.gw_u", mean(SaveU) * 100.0,
              "%");
  Json.scalar("fig10.interactive_of_perf_pct", mean(NormInter) * 100.0, "%");

  TablePrinter Viol = bench::table(
      {"Application", "Interactive (I)", "GreenWeb-I (I)", "Interactive (U)",
       "GreenWeb-U (U)"},
      "Fig. 10b/10c: QoS violations on top of Perf (percentage points)");
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
  Json.table("fig10bc", Viol);
  std::printf("Average additional violations: GreenWeb-I %+.2f%%, "
              "GreenWeb-U %+.2f%%   (paper: +0.8%% / +0.6%%)\n",
              mean(VI), mean(VU));
  Json.scalar("fig10.extra_violation_pct.gw_i", mean(VI), "%");
  Json.scalar("fig10.extra_violation_pct.gw_u", mean(VU), "%");
}

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

void fig11(const std::vector<AppRuns> &Apps, prof::BenchReport &Json) {
  bench::banner("Fig. 11: architecture configuration distribution",
                "Time share per <core, frequency> under GreenWeb-I (11a) "
                "and GreenWeb-U (11b), Sec. 7.3");
  struct Panel {
    const char *Id, *Governor, *Key;
    ExperimentResult AppRuns::*Slot;
  };
  const Panel Panels[] = {
      {"a", governors::GreenWebI, "gw_i", &AppRuns::GwI},
      {"b", governors::GreenWebU, "gw_u", &AppRuns::GwU},
  };
  for (const Panel &P : Panels) {
    TablePrinter Table = bench::table(
        {"Application", "A7 (%)", "A15 800-1200 (%)", "A15 1300-1800 (%)",
         "mean A15 MHz"},
        formatString("Fig. 11%s: %s", P.Id, P.Governor));
    std::vector<double> BigShare;
    for (const AppRuns &R : Apps) {
      Distribution D = summarize(R.*P.Slot);
      BigShare.push_back(D.BigLowPct + D.BigHighPct);
      Table.row()
          .cell(R.Name)
          .cell(D.LittlePct, 1)
          .cell(D.BigLowPct, 1)
          .cell(D.BigHighPct, 1)
          .cell(D.MeanBigMHz, 0);
    }
    Table.print();
    Json.table(std::string("fig11") + P.Id, Table);
    std::printf("Mean A15 time share under %s: %.1f%%\n\n", P.Governor,
                mean(BigShare));
    Json.scalar(std::string("fig11.a15_share_pct.") + P.Key, mean(BigShare),
                "%");
  }
  std::printf("Shape check: GreenWeb-I spends far more time on the A15 "
              "cluster than GreenWeb-U (paper Fig. 11a vs 11b), because "
              "the imperceptible targets often need big-core "
              "configurations while the usable targets fit the A7.\n");
}

void fig12(const std::vector<AppRuns> &Apps, prof::BenchReport &Json) {
  bench::banner("Fig. 12: execution configuration switching frequency",
                "Switches per frame, split into frequency changes and "
                "core migrations (Sec. 7.3)");
  TablePrinter Table = bench::table(
      {"Application", "GW-I freq/frame", "GW-I mig/frame", "GW-I total",
       "GW-U freq/frame", "GW-U mig/frame", "GW-U total"});

  std::vector<double> TotalI, TotalU, FreqShare;
  for (const AppRuns &R : Apps) {
    const ExperimentResult &GwI = R.GwI, &GwU = R.GwU;
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
        .cell(R.Name)
        .percentCell(FreqI)
        .percentCell(MigI)
        .percentCell(FreqI + MigI)
        .percentCell(FreqU)
        .percentCell(MigU)
        .percentCell(FreqU + MigU);
  }
  Table.print();
  Json.table("fig12", Table);
  std::printf("\nMean switching per frame: GreenWeb-I %.1f%%, GreenWeb-U "
              "%.1f%%   (paper: ~20%% on average, I > U)\n",
              mean(TotalI) * 100.0, mean(TotalU) * 100.0);
  std::printf("Frequency-only changes are %.0f%% of all switches on "
              "average (paper: frequency changes dwarf migrations).\n",
              mean(FreqShare) * 100.0);
  std::printf("Switch penalties are 100 us (DVFS) and 20 us (migration) "
              "against millisecond frames, so the overhead is minimal "
              "(Sec. 7.3).\n");
  Json.scalar("fig12.switches_per_frame_pct.gw_i", mean(TotalI) * 100.0,
              "%");
  Json.scalar("fig12.switches_per_frame_pct.gw_u", mean(TotalU) * 100.0,
              "%");
  Json.scalar("fig12.freq_only_share_pct", mean(FreqShare) * 100.0, "%");
}

} // namespace

int main(int Argc, char **Argv) {
  bench::Harness Run("bench_paper_suite", Argc, Argv);
  std::vector<AppRuns> Apps = runSweep(Run);
  table3(Apps, Run.Json);
  fig9(Apps, Run.Json);
  fig10(Apps, Run.Json);
  fig11(Apps, Run.Json);
  fig12(Apps, Run.Json);
  return 0;
}
