//===- bench/bench_ablation_feedback.cpp - ablation A1 ---------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Ablation A1: the feedback fine-tuning of Sec. 6.2 ("the GreenWeb
// runtime uses measured frame latencies as feedback information") is
// disabled. Without feedback, transient complexity surges and model
// error go uncorrected, so the surge-prone apps (Cnet, W3Schools)
// accumulate QoS violations; with feedback, a violation steps the
// configuration up one level and decays later.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace greenweb;

int main(int Argc, char **Argv) {
  bench::Harness Run("bench_ablation_feedback", Argc, Argv);
  bench::banner("Ablation A1: feedback fine-tuning on/off",
                "Sec. 6.2 event-based feedback");

  TablePrinter Table;
  Table.row()
      .cell("Application")
      .cell("Scenario")
      .cell("Feedback")
      .cell("Energy (mJ)")
      .cell("Violations (%)")
      .cell("Feedback steps")
      .cell("Recalibrations");

  for (const char *Name : {"Cnet", "W3Schools", "Amazon"}) {
    for (const char *Gov : {governors::GreenWebI, governors::GreenWebU}) {
      for (bool Feedback : {true, false}) {
        ExperimentConfig C;
        C.AppName = Name;
        C.GovernorName = Gov;
        GreenWebRuntime::Params P;
        P.EnableFeedback = Feedback;
        C.RuntimeParams = P;
        ExperimentResult R = runExperiment(C);
        bool Usable = Gov == std::string(governors::GreenWebU);
        Table.row()
            .cell(Name)
            .cell(Usable ? "usable" : "imperceptible")
            .cell(Feedback ? "on" : "off")
            .cell(R.TotalJoules * 1e3, 1)
            .cell(Usable ? R.ViolationPctUsable
                         : R.ViolationPctImperceptible,
                  2)
            .cell(int64_t(R.RuntimeStats.FeedbackStepsUp +
                          R.RuntimeStats.FeedbackStepsDown))
            .cell(int64_t(R.RuntimeStats.Recalibrations));
      }
    }
  }
  Table.print();
  Run.Json.table("Table", Table);
  std::printf("\nExpected shape: disabling feedback raises violations on "
              "the surge-prone apps at similar or lower energy; the "
              "runtime can no longer react to under-predictions between "
              "recalibrations.\n");
  return 0;
}
