//===- examples/autogreen_tool.cpp - AUTOGREEN as a CLI ------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// The AUTOGREEN annotation tool (Sec. 5) as a command-line utility:
//
//   autogreen_tool [page.html]
//
// Reads an HTML application (or a built-in demo page when no argument
// is given), runs the instrumentation / profiling / generation pipeline,
// prints the profiling log and the generated GreenWeb stylesheet, and
// shows the energy effect of the generated annotations by replaying a
// short interaction under the GreenWeb runtime with and without them.
//
//===----------------------------------------------------------------------===//

#include "autogreen/AutoGreen.h"
#include "browser/Browser.h"
#include "greenweb/GreenWebRuntime.h"
#include "hw/EnergyMeter.h"
#include "support/FileIo.h"
#include "support/TablePrinter.h"
#include "telemetry/Telemetry.h"
#include "workloads/TelemetryArtifacts.h"

#include <cstdio>
#include <string_view>

using namespace greenweb;

namespace {

/// The built-in demo: a page mixing every animation mechanism AUTOGREEN
/// detects plus a plain heavyweight tap.
const char *DemoPage = R"raw(
  <div id="menu" style="width: 80px" ontouchstart="expandMenu()">menu</div>
  <div id="gallery" ontouchmove="onDrag()">gallery</div>
  <div id="banner" onclick="slideBanner()">banner</div>
  <button id="export-btn" onclick="exportImage()">export</button>
  <style>
    #menu { transition: width 500ms; }
  </style>
  <script>
    /* CSS transition: detected via the transition-start hook. */
    function expandMenu() {
      document.getElementById('menu').style.width = '480px';
    }
    /* rAF loop: detected via the requestAnimationFrame overload. */
    var ticking = false;
    function tick() { performWork(2500); invalidate(); ticking = false; }
    function onDrag() {
      if (!ticking) { ticking = true; requestAnimationFrame(tick); }
    }
    /* jQuery-style animate(): detected via the animate() overload. */
    function slideBanner() {
      animate(document.getElementById('banner'), 350);
    }
    /* Plain heavyweight callback: classified single (short, per the
       conservative default). */
    function exportImage() {
      performWork(250000);
      document.getElementById('export-btn').textContent = 'done';
    }
  </script>
)raw";

double replayEnergy(const std::string &Html, unsigned Taps) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  EnergyMeter Meter(Chip);
  Browser B(Sim, Chip);
  AnnotationRegistry Registry;
  GreenWebRuntime::Params Params;
  Params.Scenario = UsageScenario::Usable;
  GreenWebRuntime Runtime(Registry, Params);
  B.OnPageParsed = [&] { Registry.loadFromPage(B); };
  Runtime.attach(B);
  B.loadPage(Html);
  Sim.runUntil(Sim.now() + Duration::seconds(2));
  Meter.reset();
  for (unsigned Tap = 0; Tap < Taps; ++Tap) {
    B.dispatchInput("touchstart", "menu");
    Sim.runUntil(Sim.now() + Duration::seconds(1));
    B.dispatchInput("click", "export-btn");
    Sim.runUntil(Sim.now() + Duration::seconds(2));
  }
  Runtime.detach();
  return Meter.totalJoules();
}

} // namespace

int main(int Argc, char **Argv) {
  // `--prof` and friends apply to the whole pipeline; the first
  // positional argument is the page to annotate.
  TelemetryArtifactOptions Artifacts;
  const char *PagePath = nullptr;
  auto Own = [&](std::string_view Arg) {
    if (startsWith(Arg, "--") || PagePath)
      return ArgMatch::Unknown;
    PagePath = Arg.data();
    return ArgMatch::Taken;
  };
  if (!Artifacts.parseArgs(Argc, Argv, Own)) {
    std::fprintf(stderr, "usage: autogreen_tool [page.html] [--prof] "
                         "[--prof-out=BASE] [--prof-sample=MICROS]\n");
    return 2;
  }

  std::string Html;
  if (PagePath) {
    std::string Error;
    if (!readFile(PagePath, Html, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::printf("AUTOGREEN: annotating %s\n\n", PagePath);
  } else {
    Html = DemoPage;
    std::printf("AUTOGREEN: annotating the built-in demo page (pass a "
                ".html path to annotate your own)\n\n");
  }

  AutoGreenResult Result = runAutoGreen(Html);

  std::printf("--- profiling log ---------------------------------------\n");
  for (const std::string &Line : Result.Log)
    std::printf("  %s\n", Line.c_str());
  std::printf("\n%zu events profiled: %zu continuous, %zu single, %zu "
              "skipped (no stable selector)\n\n",
              Result.EventsProfiled, Result.ContinuousDetected,
              Result.SingleDetected, Result.SkippedUnselectable);

  std::printf("--- generated GreenWeb stylesheet -----------------------\n");
  std::printf("%s\n", Result.GeneratedCss.c_str());

  // Show the energy effect on the demo page only (an arbitrary user
  // page may not have the demo's element ids to replay against).
  if (!PagePath) {
    double Plain = replayEnergy(Html, 3);
    double Annotated = replayEnergy(Result.AnnotatedHtml, 3);
    TablePrinter Table("3 menu-expand + export interactions under "
                       "GreenWeb-U");
    Table.row().cell("Page").cell("Energy (mJ)").cell("vs unannotated");
    Table.row().cell("unannotated").cell(Plain * 1e3, 1).cell("100.0%");
    Table.row()
        .cell("AUTOGREEN-annotated")
        .cell(Annotated * 1e3, 1)
        .percentCell(Plain > 0 ? Annotated / Plain : 0.0);
    Table.print();
    std::printf("\nNote: on an unannotated page the GreenWeb runtime "
                "never boosts, so it is cheap but slow; the annotated "
                "page spends energy exactly where the QoS targets "
                "demand it.\n");
  }
  // The tool records no telemetry; this writes the profile files.
  Telemetry NoTel;
  return writeTelemetryArtifacts(Artifacts, NoTel) ? 0 : 1;
}
