//===- bench/bench_ablation_qostype.cpp - ablation A3 ----------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Ablation A3: what happens when the QoS *type* is wrong (Sec. 3.2's
// motivating discussion). Forcing continuous events to "single" makes
// the runtime optimize only the first frame of each animation and idle
// through the rest (violations); forcing single events to "continuous"
// keeps the runtime boosting through the post-frame work (energy
// waste). This is exactly why the paper argues the type must be
// expressed by developers rather than guessed.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace greenweb;

int main(int Argc, char **Argv) {
  bench::Harness Run("bench_ablation_qostype", Argc, Argv);
  bench::banner("Ablation A3: QoS-type confusion",
                "Sec. 3.2 'Distinguishing between continuous and single "
                "is important'");

  TablePrinter Table;
  Table.row()
      .cell("Application")
      .cell("Annotation type")
      .cell("Energy (mJ)")
      .cell("Viol-I (%)")
      .cell("Active frames optimized");

  // Continuous-natured apps forced to single.
  for (const char *Name : {"Goo.ne.jp", "W3Schools"}) {
    for (int Mode = 0; Mode < 2; ++Mode) {
      ExperimentConfig C;
      C.AppName = Name;
      C.GovernorName = governors::GreenWebI;
      if (Mode == 1)
        C.ForceQosType = QosType::Single;
      ExperimentResult R = runExperiment(C);
      Table.row()
          .cell(Name)
          .cell(Mode == 0 ? "correct (continuous)" : "forced single")
          .cell(R.TotalJoules * 1e3, 1)
          .cell(R.ViolationPctImperceptible, 2)
          .cell(int64_t(R.RuntimeStats.PredictedFrames +
                        R.RuntimeStats.ProfilingFrames));
    }
  }
  // Single-natured apps forced to continuous.
  for (const char *Name : {"CamanJS", "Todo"}) {
    for (int Mode = 0; Mode < 2; ++Mode) {
      ExperimentConfig C;
      C.AppName = Name;
      C.GovernorName = governors::GreenWebI;
      if (Mode == 1)
        C.ForceQosType = QosType::Continuous;
      ExperimentResult R = runExperiment(C);
      Table.row()
          .cell(Name)
          .cell(Mode == 0 ? "correct (single)" : "forced continuous")
          .cell(R.TotalJoules * 1e3, 1)
          .cell(R.ViolationPctImperceptible, 2)
          .cell(int64_t(R.RuntimeStats.PredictedFrames +
                        R.RuntimeStats.ProfilingFrames));
    }
  }
  Table.print();
  Run.Json.table("Table", Table);
  std::printf(
      "\nExpected shape: forcing animations to 'single' stops per-frame "
      "optimization after the first frame (fewer frames optimized, more "
      "violations); forcing taps to 'continuous' keeps the chip boosted "
      "through post-frame work (more energy for no QoS gain).\n");
  return 0;
}
