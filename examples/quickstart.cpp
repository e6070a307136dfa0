//===- examples/quickstart.cpp - GreenWeb in one page -------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Quickstart: build a small annotated page, run the same tap
// interaction under the Perf baseline and under the GreenWeb runtime,
// and compare energy and frame latency. This is the paper's Fig. 4
// example (a CSS-transition animation annotated as "continuous")
// driven end to end.
//
//===----------------------------------------------------------------------===//

#include "browser/Browser.h"
#include "greenweb/GreenWebRuntime.h"
#include "hw/EnergyMeter.h"
#include "support/TablePrinter.h"
#include "telemetry/Telemetry.h"
#include "workloads/Experiment.h"
#include "workloads/TelemetryArtifacts.h"

#include <cstdio>

using namespace greenweb;

namespace {

// The page: a box that expands via a 2 s CSS transition when tapped
// (Fig. 4 of the paper), annotated with the GreenWeb ontouchstart-qos
// property.
const char *PageHtml = R"html(
<div id="ex" class="box" style="width: 100px"
     ontouchstart="animateExpanding()">tap me</div>
<div id="content">
  <div class="item">a</div><div class="item">b</div>
  <div class="item">c</div><div class="item">d</div>
</div>
<style>
  .box { transition: width 2s; }
  div#ex:QoS { ontouchstart-qos: continuous; }
  html:QoS { onload-qos: single, long; }
</style>
<script>
  function animateExpanding() {
    performWork(2000);
    document.getElementById('ex').style.width = '500px';
  }
</script>
)html";

struct RunOutcome {
  double Joules = 0.0;
  double WorstFrameMs = 0.0;
  double MeanFrameMs = 0.0;
  uint64_t Frames = 0;
  std::string FinalConfig;
  bool ArtifactsWritten = true;
};

/// Runs the tap under one governor and reports energy and latencies.
/// \p Registry is the annotation registry the governor consults (the
/// page's GreenWeb rules are loaded into it once the page parses).
/// When \p Artifacts requests output, the run is instrumented with a
/// telemetry hub and the artifacts are written before returning.
RunOutcome runOnce(Governor &Gov, AnnotationRegistry &Registry,
                   const TelemetryArtifactOptions *Artifacts = nullptr) {
  Simulator Sim;
  Telemetry Tel;
  bool Instrument = Artifacts && (Artifacts->any() || Artifacts->Prof);
  if (Instrument) {
    Artifacts->configureHub(Tel);
    Sim.setTelemetry(&Tel);
  }
  AcmpChip Chip(Sim);
  EnergyMeter Meter(Chip);
  ConfigTimelineRecorder Recorder(Chip);
  Browser B(Sim, Chip);

  B.OnPageParsed = [&] { Registry.loadFromPage(B); };
  Gov.attach(B);
  B.loadPage(PageHtml);
  Sim.runUntil(Sim.now() + Duration::seconds(2));

  Meter.reset();
  if (Instrument)
    Meter.enableSampling(Duration::milliseconds(1));
  B.frameTracker().clearFrames();
  B.dispatchInput("touchstart", "ex");
  Sim.runUntil(Sim.now() + Duration::fromMillis(2500));
  RunOutcome Out;
  if (Instrument) {
    Meter.recordSampleNow();
    Out.ArtifactsWritten = writeTelemetryArtifacts(
        *Artifacts, Tel, B.frameTracker().frames(), Recorder.intervals());
  }
  Out.Joules = Meter.totalJoules();
  Out.Frames = B.frameTracker().frames().size();
  double SumMs = 0.0;
  for (const FrameRecord &Frame : B.frameTracker().frames()) {
    double Ms = Frame.maxLatency().millis();
    Out.WorstFrameMs = std::max(Out.WorstFrameMs, Ms);
    SumMs += Ms;
  }
  Out.MeanFrameMs = Out.Frames ? SumMs / double(Out.Frames) : 0.0;
  Out.FinalConfig = Chip.config().str();
  Gov.detach();
  for (const std::string &Error : B.ScriptErrors)
    std::fprintf(stderr, "script error: %s\n", Error.c_str());
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  // `--trace=`/`--log=`/`--metrics=` instrument the GreenWeb-I run.
  TelemetryArtifactOptions Artifacts;
  if (!Artifacts.parseArgs(Argc, Argv)) {
    std::fprintf(stderr,
                 "usage: quickstart [--trace=trace.json] "
                 "[--log=events.jsonl] [--metrics=metrics.json] "
                 "[--prof] [--prof-out=BASE] [--prof-sample=MICROS]\n");
    return 2;
  }

  std::printf("GreenWeb quickstart: a 2s CSS-transition animation "
              "annotated `ontouchstart-qos: continuous`\n\n");

  AnnotationRegistry RegistryPerf, RegistryI, RegistryU;

  PerfGovernor Perf;
  RunOutcome PerfRun = runOnce(Perf, RegistryPerf);

  GreenWebRuntime::Params ParamsI;
  ParamsI.Scenario = UsageScenario::Imperceptible;
  GreenWebRuntime RuntimeI(RegistryI, ParamsI);
  RunOutcome GreenIRun = runOnce(RuntimeI, RegistryI, &Artifacts);

  GreenWebRuntime::Params ParamsU;
  ParamsU.Scenario = UsageScenario::Usable;
  GreenWebRuntime RuntimeU(RegistryU, ParamsU);
  RunOutcome GreenURun = runOnce(RuntimeU, RegistryU);

  TablePrinter Table("Tap -> 2s expansion animation (~120 frames)");
  Table.row()
      .cell("Policy")
      .cell("Energy (mJ)")
      .cell("vs Perf")
      .cell("Mean frame (ms)")
      .cell("Worst frame (ms)")
      .cell("Frames");
  auto addRow = [&](const char *Name, const RunOutcome &Out) {
    Table.row()
        .cell(Name)
        .cell(Out.Joules * 1e3, 2)
        .percentCell(PerfRun.Joules > 0
                         ? 1.0 - Out.Joules / PerfRun.Joules
                         : 0.0)
        .cell(Out.MeanFrameMs, 1)
        .cell(Out.WorstFrameMs, 1)
        .cell(int64_t(Out.Frames));
  };
  addRow("Perf", PerfRun);
  addRow("GreenWeb-I (16.6ms)", GreenIRun);
  addRow("GreenWeb-U (33.3ms)", GreenURun);
  Table.print();

  std::printf("\nGreenWeb-I meets the 16.6ms imperceptible target on a "
              "lower-power configuration than Perf;\nGreenWeb-U relaxes "
              "to the 33.3ms usable target and drops to the little "
              "cluster for most frames.\n");
  return GreenIRun.ArtifactsWritten ? 0 : 1;
}
