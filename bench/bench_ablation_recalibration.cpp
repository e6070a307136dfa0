//===- bench/bench_ablation_recalibration.cpp - ablation A6 ----------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Ablation A6: the re-profiling threshold ("if the model mispredicts
// consecutively more than a certain threshold, the runtime initiates
// new profilings to recalibrate", Sec. 6.2). Swept on the surge-prone
// W3Schools and Cnet: a hair-trigger threshold recalibrates constantly
// (each recalibration includes a min-frequency frame, hurting QoS); a
// huge threshold never adapts to sustained workload shifts.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace greenweb;

int main(int Argc, char **Argv) {
  bench::Harness Run("bench_ablation_recalibration", Argc, Argv);
  bench::banner("Ablation A6: recalibration threshold sweep",
                "Sec. 6.2 consecutive-misprediction re-profiling");

  for (const char *Name : {"W3Schools", "Cnet"}) {
    TablePrinter Table(formatString("%s, GreenWeb-U", Name));
    Table.row()
        .cell("Threshold")
        .cell("Energy (mJ)")
        .cell("Viol-U (%)")
        .cell("Recalibrations")
        .cell("Profiling frames");
    for (unsigned Threshold : {2u, 4u, 6u, 10u, 1000000u}) {
      ExperimentConfig C;
      C.AppName = Name;
      C.GovernorName = governors::GreenWebU;
      GreenWebRuntime::Params P;
      P.Scenario = UsageScenario::Usable;
      P.RecalibrateAfter = Threshold;
      C.RuntimeParams = P;
      ExperimentResult R = runExperiment(C);
      Table.row()
          .cell(Threshold >= 1000000u ? std::string("never")
                                      : formatString("%u", Threshold))
          .cell(R.TotalJoules * 1e3, 1)
          .cell(R.ViolationPctUsable, 2)
          .cell(int64_t(R.RuntimeStats.Recalibrations))
          .cell(int64_t(R.RuntimeStats.ProfilingFrames));
    }
    Table.print();
    Run.Json.table("Table", Table);
    std::printf("\n");
  }
  std::printf("Expected shape: small thresholds trade extra profiling "
              "frames (each with a min-frequency QoS hit) for faster "
              "adaptation; 'never' avoids profiling churn but leaves "
              "the model stale after surges.\n");
  return 0;
}
