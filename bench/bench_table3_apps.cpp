//===- bench/bench_table3_apps.cpp - Table 3 ------------------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Regenerates Table 3: the twelve evaluation applications with their
// microbenchmark interaction / QoS category and the measured
// full-interaction statistics (session time, event count, annotation
// percentage) from an instrumented Perf run.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "workloads/Apps.h"

using namespace greenweb;
using bench::ResultCache;

int main(int Argc, char **Argv) {
  bench::Harness Run("bench_table3_apps", Argc, Argv);
  bench::banner("Table 3: evaluation applications",
                "Micro-benchmarking and full-interaction characteristics "
                "(Sec. 7.1, Table 3)");

  ResultCache Cache(Run);
  {
    // Warm every sweep cell across --jobs workers (default serial);
    // results and telemetry are identical to serial cell-by-cell runs.
    std::vector<bench::BenchCell> Cells;
    for (const std::string &Name : allAppNames())
      for (const char *Gov : {governors::Perf})
        Cells.push_back({Name, Gov, ExperimentMode::Full});
    Cache.prefetch(Cells);
  }
  TablePrinter Table;
  Table.row()
      .cell("Application")
      .cell("Interaction")
      .cell("QoS Type")
      .cell("QoS Target")
      .cell("Time")
      .cell("Events")
      .cell("Annotation");

  double SumTime = 0.0;
  uint64_t SumEvents = 0;
  for (const std::string &Name : allAppNames()) {
    AppDefinition App = makeApp(Name, 1);
    const ExperimentResult &Full =
        Cache.get(Name, governors::Perf, ExperimentMode::Full);

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
    SumEvents += Full.InputEvents;

    Table.row()
        .cell(Name)
        .cell(interactionKindName(App.MicroInteraction))
        .cell(qosTypeName(App.MicroType))
        .cell(Target)
        .cell(formatString("%d:%02d", int(Secs) / 60, int(Secs) % 60))
        .cell(int64_t(Full.InputEvents))
        .cell(formatString("%.1f%%", Full.AnnotationPct));
  }
  Table.print();
  Run.Json.table("Table", Table);

  std::printf("\nAverages: %.0f s per session, %.0f events per session "
              "(paper: ~43 s, ~94 events).\n",
              SumTime / 12.0, double(SumEvents) / 12.0);
  return 0;
}
