//===- bench/bench_autogreen.cpp - Sec. 5 ablation -------------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Evaluates AUTOGREEN (Sec. 5): per app, how many events it profiles,
// its single/continuous classification vs the manual annotations, and
// the end-to-end effect of running the full interaction with
// AUTOGREEN's annotations instead of the manual ones. The paper notes
// AUTOGREEN conservatively assumes short targets for single events, so
// auto-annotated heavyweight apps (CamanJS, LZMA-JS) chase 100 ms
// instead of 1 s and burn more energy — that is the manual-correction
// gap of Sec. 7.3 ("we manually correct the QoS target for events that
// should have a long response latency").
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "autogreen/AutoGreen.h"
#include "workloads/Apps.h"

using namespace greenweb;

int main(int Argc, char **Argv) {
  bench::Harness Run("bench_autogreen", Argc, Argv);
  bench::banner("AUTOGREEN: automatic annotation",
                "Classification per app plus auto-vs-manual energy "
                "(Sec. 5, Sec. 7.3 'Annotation Effort')");

  TablePrinter Class("Classification of discovered events");
  Class.row()
      .cell("Application")
      .cell("Profiled")
      .cell("Continuous")
      .cell("Single")
      .cell("Skipped");
  for (const std::string &Name : allAppNames()) {
    AppDefinition App = makeApp(Name, 1);
    AutoGreenResult R = runAutoGreen(App.Html);
    Class.row()
        .cell(Name)
        .cell(int64_t(R.EventsProfiled))
        .cell(int64_t(R.ContinuousDetected))
        .cell(int64_t(R.SingleDetected))
        .cell(int64_t(R.SkippedUnselectable));
  }
  Class.print();
  Run.Json.table("Class", Class);

  std::printf("\nEnd-to-end: full interaction under GreenWeb-I with "
              "manual vs AUTOGREEN annotations\n\n");
  TablePrinter Energy;
  Energy.row()
      .cell("Application")
      .cell("Manual (mJ)")
      .cell("AutoGreen (mJ)")
      .cell("Auto/Manual")
      .cell("Auto viol-I (+%)");
  // A representative subset spanning the three QoS categories.
  for (const char *Name :
       {"CamanJS", "LZMA-JS", "Todo", "Goo.ne.jp", "W3Schools"}) {
    ExperimentConfig C;
    C.AppName = Name;
    C.GovernorName = governors::GreenWebI;
    ExperimentResult Manual = runExperiment(C);
    C.UseAutoGreenAnnotations = true;
    ExperimentResult Auto = runExperiment(C);
    Energy.row()
        .cell(Name)
        .cell(Manual.TotalJoules * 1e3, 1)
        .cell(Auto.TotalJoules * 1e3, 1)
        .cell(bench::percentOf(Auto.TotalJoules, Manual.TotalJoules))
        .cell(formatString("%+.2f",
                           Auto.ViolationPctImperceptible -
                               Manual.ViolationPctImperceptible));
  }
  Energy.print();
  Run.Json.table("Energy", Energy);
  std::printf("\nShape check: heavyweight single apps (CamanJS, LZMA-JS) "
              "cost more under AUTOGREEN because its conservative "
              "'single, short' assumption chases a 100 ms target that "
              "needs the big cluster; the paper fixes these by hand "
              "(Sec. 7.3).\n");
  return 0;
}
