//===- examples/photo_editor.cpp - heavyweight single interactions -------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Domain example: a CamanJS-style photo editor. Applying an image
// filter is a heavyweight "single" interaction: users watch a progress
// indicator and subconsciously tolerate up to a second (Sec. 3.3's
// psychological thresholds), so the right annotation is
// `onclick-qos: single, long` — and with it the GreenWeb runtime can
// run the whole filter on the little cluster.
//
// The example contrasts three annotations for the same button:
//   * single, long   (correct)   -> little cluster, large savings
//   * single, short  (AUTOGREEN's conservative guess) -> big cluster
//   * none           (unannotated) -> the runtime never leaves idle
// and prints the filter latency and energy for each.
//
//===----------------------------------------------------------------------===//

#include "browser/Browser.h"
#include "greenweb/GreenWebRuntime.h"
#include "hw/EnergyMeter.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "telemetry/Telemetry.h"
#include "workloads/TelemetryArtifacts.h"

#include <cstdio>

using namespace greenweb;

namespace {

std::string makePage(const char *QosRule) {
  return formatString(R"raw(
    <div id="canvas-area" class="canvas">photo</div>
    <button id="filter-btn" onclick="applyFilter()">sepia</button>
    <style>
      .canvas { margin: 8px; }
      html:QoS { onload-qos: single, long; }
      %s
    </style>
    <script>
      var applied = 0;
      function applyFilter() {
        performWork(350000); /* per-pixel kernel: 350M cycles */
        applied = applied + 1;
        document.getElementById('canvas-area').textContent =
            'filtered ' + applied;
      }
    </script>
  )raw",
                      QosRule);
}

struct Outcome {
  double MillijoulesPerTap = 0.0;
  double MeanLatencyMs = 0.0;
  bool MeetsOneSecond = false;
  bool ArtifactsWritten = true;
};

Outcome runEditor(const char *QosRule, unsigned Taps,
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

  AnnotationRegistry Registry;
  GreenWebRuntime::Params Params;
  Params.Scenario = UsageScenario::Imperceptible;
  GreenWebRuntime Runtime(Registry, Params);
  Runtime.setEnergyMeter(&Meter);
  B.OnPageParsed = [&] { Registry.loadFromPage(B); };
  Runtime.attach(B);

  B.loadPage(makePage(QosRule));
  Sim.runUntil(Sim.now() + Duration::seconds(2));
  Meter.reset();
  if (Instrument)
    Meter.enableSampling(Duration::milliseconds(1));
  B.frameTracker().clearFrames();

  for (unsigned Tap = 0; Tap < Taps; ++Tap) {
    B.dispatchInput("click", "filter-btn");
    Sim.runUntil(Sim.now() + Duration::seconds(3));
  }
  Outcome Out;
  if (Instrument) {
    Meter.recordSampleNow();
    Out.ArtifactsWritten = writeTelemetryArtifacts(
        *Artifacts, Tel, B.frameTracker().frames(), Recorder.intervals());
  }
  Out.MillijoulesPerTap = Meter.totalJoules() * 1e3 / Taps;
  double SumMs = 0.0;
  size_t Count = 0;
  Out.MeetsOneSecond = true;
  for (const FrameRecord &Frame : B.frameTracker().frames()) {
    double Ms = Frame.maxLatency().millis();
    SumMs += Ms;
    ++Count;
    if (Ms > 1000.0)
      Out.MeetsOneSecond = false;
  }
  Out.MeanLatencyMs = Count ? SumMs / double(Count) : 0.0;
  Runtime.detach();
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  // `--trace=`/`--log=`/`--metrics=` instrument the correctly-annotated
  // (`single, long`) run.
  TelemetryArtifactOptions Artifacts;
  if (!Artifacts.parseArgs(Argc, Argv)) {
    std::fprintf(stderr,
                 "usage: photo_editor [--trace=trace.json] "
                 "[--log=events.jsonl] [--metrics=metrics.json] "
                 "[--prof] [--prof-out=BASE] [--prof-sample=MICROS]\n");
    return 2;
  }

  std::printf("Photo editor: a 350M-cycle filter behind one button.\n"
              "How the annotation changes what the GreenWeb runtime "
              "does (imperceptible scenario):\n\n");

  struct Case {
    const char *Label;
    const char *Rule;
  };
  const Case Cases[] = {
      {"single, long (correct)",
       "#filter-btn:QoS { onclick-qos: single, long; }"},
      {"single, short (conservative)",
       "#filter-btn:QoS { onclick-qos: single, short; }"},
      {"unannotated", "/* no rule for the button */"},
  };

  TablePrinter Table("6 filter taps each");
  Table.row()
      .cell("Annotation")
      .cell("Energy/tap (mJ)")
      .cell("Mean latency (ms)")
      .cell("Within 1s target");
  bool First = true;
  bool ArtifactsWritten = true;
  for (const Case &C : Cases) {
    Outcome Out = runEditor(C.Rule, 6, First ? &Artifacts : nullptr);
    First = false;
    ArtifactsWritten &= Out.ArtifactsWritten;
    Table.row()
        .cell(C.Label)
        .cell(Out.MillijoulesPerTap, 1)
        .cell(Out.MeanLatencyMs, 0)
        .cell(Out.MeetsOneSecond ? "yes" : "no");
  }
  Table.print();

  std::printf(
      "\nReading the table:\n"
      " * `single, long` paces the filter on the A7 cluster: slower but "
      "still inside the 1s imperceptible window, at a fraction of the "
      "energy.\n"
      " * `single, short` chases a 100ms target the filter cannot meet, "
      "so the runtime burns big-core energy for no experiential gain "
      "(this is AUTOGREEN's conservative default, which the paper "
      "corrects manually).\n"
      " * Unannotated events are not optimization targets: the chip "
      "stays at the idle configuration, which is cheap but slow - and "
      "invisible to the QoS accounting.\n");
  return ArtifactsWritten ? 0 : 1;
}
