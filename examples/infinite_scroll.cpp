//===- examples/infinite_scroll.cpp - continuous interactions ------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Domain example: an Amazon-style product feed with infinite scroll.
// Scrolling is a "continuous" interaction - every frame of the stream
// matters - and this example shows the battery-scenario trade-off the
// paper's GreenWeb-I / GreenWeb-U split expresses: the same annotated
// page is scrolled under both scenarios and under the baselines, and
// the frame-rate / energy outcomes are compared. It also demonstrates
// the Fig. 5-style custom-target annotation (`continuous, 20, 100`).
//
//===----------------------------------------------------------------------===//

#include "browser/Browser.h"
#include "greenweb/Governors.h"
#include "greenweb/GreenWebRuntime.h"
#include "hw/EnergyMeter.h"
#include "support/Statistics.h"
#include "support/TablePrinter.h"
#include "telemetry/Telemetry.h"
#include "workloads/TelemetryArtifacts.h"

#include <cstdio>
#include <memory>

using namespace greenweb;

namespace {

const char *FeedPage = R"raw(
  <div id="feed" ontouchmove="feedMove()">
    <div class="product">a</div><div class="product">b</div>
    <div class="product">c</div><div class="product">d</div>
  </div>
  <style>
    .product { margin: 6px; }
    html:QoS { onload-qos: single, long; }
    #feed:QoS { ontouchmove-qos: continuous; }
  </style>
  <script>
    function feedMove() {
      performWork(1500); /* lazy-load viewport checks */
    }
  </script>
)raw";

struct ScrollOutcome {
  double Millijoules = 0.0;
  double MeanFrameMs = 0.0;
  double P95FrameMs = 0.0;
  size_t Frames = 0;
};

/// Runs the gesture sequence under \p Gov. When the governor is a
/// GreenWebRuntime, pass the registry it was constructed over via
/// \p GovernorRegistry so the page's annotations reach it. When
/// \p Artifacts requests output, the run is instrumented and the
/// artifacts are written before returning.
ScrollOutcome
scrollUnder(Governor &Gov, AnnotationRegistry *GovernorRegistry = nullptr,
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
  // Product tiles are image-heavy: scale the render complexity up.
  B.FrameComplexityFn = [](uint64_t) { return 2.2; };

  AnnotationRegistry LocalRegistry;
  AnnotationRegistry &Registry =
      GovernorRegistry ? *GovernorRegistry : LocalRegistry;
  B.OnPageParsed = [&] {
    Registry.clear();
    Registry.loadFromPage(B);
  };
  Gov.attach(B);
  B.loadPage(FeedPage);
  Sim.runUntil(Sim.now() + Duration::seconds(2));
  Meter.reset();
  if (Instrument)
    Meter.enableSampling(Duration::milliseconds(1));
  B.frameTracker().clearFrames();

  // Three fling gestures of 30 touchmoves at ~30Hz, a second apart.
  for (int Burst = 0; Burst < 3; ++Burst) {
    TimePoint Start = Sim.now();
    for (int Move = 0; Move < 30; ++Move) {
      Sim.scheduleAt(Start + Duration::fromMillis(Move * 33.0),
                     [&B] { B.dispatchInput("touchmove", "feed"); });
    }
    Sim.runUntil(Start + Duration::seconds(2));
  }

  if (Instrument) {
    Meter.recordSampleNow();
    writeTelemetryArtifacts(*Artifacts, Tel, B.frameTracker().frames(),
                            Recorder.intervals());
  }

  ScrollOutcome Out;
  Out.Millijoules = Meter.totalJoules() * 1e3;
  std::vector<double> FrameMs;
  for (const FrameRecord &Frame : B.frameTracker().frames())
    FrameMs.push_back((Frame.ReadyTime - Frame.BeginTime).millis());
  Out.Frames = FrameMs.size();
  Out.MeanFrameMs = mean(FrameMs);
  Out.P95FrameMs = percentile(FrameMs, 95);
  Gov.detach();
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  // `--trace=`/`--log=`/`--metrics=` instrument the GreenWeb-I run.
  TelemetryArtifactOptions Artifacts;
  if (!Artifacts.parseArgs(Argc, Argv)) {
    std::fprintf(stderr,
                 "usage: infinite_scroll [--trace=trace.json] "
                 "[--log=events.jsonl] [--metrics=metrics.json] "
                 "[--prof] [--prof-out=BASE] [--prof-sample=MICROS]\n");
    return 2;
  }

  std::printf("Infinite scroll: the same annotated feed "
              "(`ontouchmove-qos: continuous`) scrolled under four "
              "policies.\n\n");

  TablePrinter Table("3 fling gestures, 90 touchmoves");
  Table.row()
      .cell("Policy")
      .cell("Energy (mJ)")
      .cell("Frames")
      .cell("Mean frame (ms)")
      .cell("p95 frame (ms)")
      .cell("Experience");

  auto addRow = [&](const char *Label, Governor &Gov,
                    const char *Experience,
                    AnnotationRegistry *Registry = nullptr,
                    const TelemetryArtifactOptions *Arts = nullptr) {
    ScrollOutcome Out = scrollUnder(Gov, Registry, Arts);
    Table.row()
        .cell(Label)
        .cell(Out.Millijoules, 1)
        .cell(int64_t(Out.Frames))
        .cell(Out.MeanFrameMs, 1)
        .cell(Out.P95FrameMs, 1)
        .cell(Experience);
  };

  PerfGovernor Perf;
  addRow("Perf", Perf, "60 FPS, max energy");

  InteractiveGovernor Interactive;
  addRow("Interactive", Interactive, "60 FPS, near-Perf energy");

  AnnotationRegistry RegistryI;
  GreenWebRuntime::Params ParamsI;
  ParamsI.Scenario = UsageScenario::Imperceptible;
  GreenWebRuntime GwI(RegistryI, ParamsI);
  addRow("GreenWeb-I (16.6ms)", GwI, "60 FPS on cheaper configs",
         &RegistryI, &Artifacts);

  AnnotationRegistry RegistryU;
  GreenWebRuntime::Params ParamsU;
  ParamsU.Scenario = UsageScenario::Usable;
  GreenWebRuntime GwU(RegistryU, ParamsU);
  addRow("GreenWeb-U (33.3ms)", GwU, "30 FPS, little cluster",
         &RegistryU);

  Table.print();
  std::printf("\nThe 30Hz gesture needs one frame per touchmove; "
              "GreenWeb-U stretches each frame to fill the 33.3ms "
              "usable budget on the A7 cluster, GreenWeb-I picks the "
              "cheapest configuration inside the 16.6ms imperceptible "
              "budget, and Perf/Interactive race every frame at peak "
              "speed - decisions they cannot avoid because they do not "
              "know the QoS target.\n");
  return 0;
}
