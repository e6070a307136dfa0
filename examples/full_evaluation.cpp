//===- examples/full_evaluation.cpp - one-shot evaluation driver ---------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Runs one (application, governor, mode) experiment from the command
// line and prints a detailed report - the programmatic entry point the
// bench harnesses are built on, exposed as a tool:
//
//   full_evaluation [app] [governor] [micro|full]
//
// e.g. `full_evaluation Cnet GreenWeb-U full`. Artifact flags (shared
// with the other examples) instrument the session and export it:
//
//   full_evaluation Goo.ne.jp GreenWeb-U full --trace=trace.json \
//       --log=events.jsonl --metrics=metrics.json
//
// A trailing positional path is still accepted as shorthand for all
// three (`trace.json` + `trace.events.jsonl` + `trace.metrics.json`).
// `--diagnose` prints per-violation critical-path WhyReports and the
// per-annotation energy attribution table without writing files; any
// artifact flag implies it.
//
// With no arguments, runs a compact sweep of one app per QoS category
// under every governor.
//
//===----------------------------------------------------------------------===//

#include "browser/Browser.h"
#include "browser/TraceExport.h"
#include "greenweb/Governors.h"
#include "greenweb/GreenWebRuntime.h"
#include "hw/EnergyMeter.h"
#include "support/TablePrinter.h"
#include "telemetry/CriticalPath.h"
#include "telemetry/EnergyAttribution.h"
#include "telemetry/SchedTrace.h"
#include "telemetry/Telemetry.h"
#include "workloads/Experiment.h"
#include "workloads/ParallelRunner.h"
#include "workloads/TelemetryArtifacts.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

using namespace greenweb;

namespace {

void printDetailed(const ExperimentResult &R) {
  std::printf("%s under %s (%s interaction, seed %llu)\n", R.App.c_str(),
              R.Governor.c_str(),
              R.Mode == ExperimentMode::Micro ? "micro" : "full",
              static_cast<unsigned long long>(R.Seed));
  std::printf("  energy: %.1f mJ (A15 %.1f mJ, A7 %.1f mJ) over %.1f s "
              "-> %.0f mW average\n",
              R.TotalJoules * 1e3, R.BigJoules * 1e3, R.LittleJoules * 1e3,
              R.MeasuredSeconds,
              R.MeasuredSeconds > 0
                  ? R.TotalJoules / R.MeasuredSeconds * 1e3
                  : 0.0);
  std::printf("  events: %llu (%llu annotated), frames: %llu\n",
              static_cast<unsigned long long>(R.InputEvents),
              static_cast<unsigned long long>(R.AnnotatedEvents),
              static_cast<unsigned long long>(R.Frames));
  std::printf("  QoS violations: %.2f%% (imperceptible targets), %.2f%% "
              "(usable targets)\n",
              R.ViolationPctImperceptible, R.ViolationPctUsable);
  std::printf("  switching: %llu frequency changes, %llu migrations\n",
              static_cast<unsigned long long>(R.FreqSwitches),
              static_cast<unsigned long long>(R.Migrations));
  if (R.RuntimeStats.AnnotatedEvents + R.RuntimeStats.UnannotatedEvents >
      0)
    std::printf("  runtime: %llu profiling frames, %llu predicted, "
                "%llu/%llu feedback up/down, %llu recalibrations\n",
                static_cast<unsigned long long>(
                    R.RuntimeStats.ProfilingFrames),
                static_cast<unsigned long long>(
                    R.RuntimeStats.PredictedFrames),
                static_cast<unsigned long long>(
                    R.RuntimeStats.FeedbackStepsUp),
                static_cast<unsigned long long>(
                    R.RuntimeStats.FeedbackStepsDown),
                static_cast<unsigned long long>(
                    R.RuntimeStats.Recalibrations));
  std::printf("  configuration residency:\n");
  for (const auto &[Config, T] : R.ConfigDistribution) {
    double Pct = R.MeasuredSeconds > 0
                     ? 100.0 * T.secs() / R.MeasuredSeconds
                     : 0.0;
    if (Pct >= 0.5)
      std::printf("    %-12s %5.1f%%\n", Config.str().c_str(), Pct);
  }
}

int runSweep(unsigned Jobs, const TelemetryArtifactOptions &Artifacts) {
  std::printf("No arguments: sweeping one app per QoS category under "
              "every governor.\n\n");
  // The sweep is |apps| x |governors| independent simulations; fan them
  // out and print in config order, which makes the output byte-identical
  // for any job count.
  std::vector<ExperimentConfig> Configs;
  for (const char *App : {"CamanJS", "Todo", "Goo.ne.jp"}) {
    for (const char *Gov :
         {governors::Perf, governors::Interactive, governors::GreenWebI,
          governors::GreenWebU}) {
      ExperimentConfig C;
      C.AppName = App;
      C.GovernorName = Gov;
      Configs.push_back(std::move(C));
    }
  }
  ParallelExperimentOptions Opts;
  Opts.Jobs = Jobs;
  // Scheduler observability is opt-in: host wall-clock values would
  // break the byte-deterministic stdout contract if always on.
  SchedTrace Sched;
  if (!Artifacts.SchedPath.empty())
    Opts.Sched = &Sched;
  SchedProgress Progress;
  if (Artifacts.Progress)
    Opts.Progress = &Progress;
  auto Start = std::chrono::steady_clock::now();
  std::vector<ExperimentResult> Results =
      runExperimentsParallel(Configs, Opts);
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();

  TablePrinter Table;
  Table.row()
      .cell("App")
      .cell("Governor")
      .cell("Energy (mJ)")
      .cell("Viol-I (%)")
      .cell("Viol-U (%)");
  for (size_t I = 0; I < Results.size(); ++I) {
    const ExperimentResult &R = Results[I];
    Table.row()
        .cell(Configs[I].AppName)
        .cell(Configs[I].GovernorName)
        .cell(R.TotalJoules * 1e3, 1)
        .cell(R.ViolationPctImperceptible, 2)
        .cell(R.ViolationPctUsable, 2);
  }
  Table.print();
  std::printf("\nsweep: %zu simulations in %.2f s wall clock with "
              "--jobs=%u\n",
              Results.size(), Secs, ParallelRunner(Jobs).jobs());
  if (Opts.Sched) {
    std::printf("\n%s", SchedReport::fromTrace(Sched).format().c_str());
    writeSchedArtifact(Artifacts, Sched);
  }
  std::printf("\nUsage: full_evaluation [app] [governor] [micro|full] "
              "[--jobs=N] "
              "[--diagnose] [--trace=trace.json] [--log=events.jsonl] "
              "[--metrics=metrics.json] [--sched=sched.json] "
              "[--progress]\n"
              "Apps: ");
  for (const std::string &Name : allAppNames())
    std::printf("%s ", Name.c_str());
  std::printf("\nGovernors: Perf Interactive Ondemand Powersave "
              "GreenWeb-I GreenWeb-U\n");
  // The sweep records no telemetry; this writes the profile files.
  Telemetry NoTel;
  writeTelemetryArtifacts(Artifacts, NoTel, {}, {}, Opts.Sched);
  return 0;
}

/// Prints the causal diagnosis of the instrumented session: one
/// WhyReport per QoS violation (critical path, bottleneck stage,
/// preceding governor decision) and the per-annotation energy ledger.
void printDiagnosis(Telemetry &Tel) {
  Tel.flushSpans();
  std::vector<WhyReport> Reports = buildWhyReports(Tel.log());
  std::printf("\n=== QoS violation diagnosis (%zu violations) ===\n",
              Reports.size());
  for (const WhyReport &Report : Reports)
    std::printf("\n%s", Report.format().c_str());
  if (Reports.empty())
    std::printf("no QoS violations recorded.\n");

  std::printf("\n=== Energy attribution ===\n%s",
              formatEnergyTable(attributeEnergy(Tel.log())).c_str());
}

/// Re-runs the session standalone with full telemetry, prints the
/// violation diagnosis and energy attribution, and writes any
/// requested artifacts: the enriched chrome://tracing JSON timeline
/// (frames, input latencies, task spans, CPU configuration residency,
/// power/frequency counter tracks, governor-decision instants, causal
/// flow arrows), the structured event log (JSONL), and the metrics
/// snapshot.
void exportTrace(const ExperimentConfig &Config,
                 const TelemetryArtifactOptions &Artifacts) {
  AppDefinition App = makeApp(Config.AppName, Config.Seed);
  Simulator Sim;
  Telemetry Tel;
  Artifacts.configureHub(Tel);
  Sim.setTelemetry(&Tel);
  AcmpChip Chip(Sim);
  EnergyMeter Meter(Chip);
  // The paper's 1 kS/s DAQ pipeline; each tick co-samples power,
  // cumulative energy, and simulator queue depth into the telemetry
  // log, which the enriched trace renders as counter tracks.
  Meter.enableSampling(Duration::milliseconds(1));
  ConfigTimelineRecorder Recorder(Chip);
  Browser B(Sim, Chip);

  AnnotationRegistry Registry;
  std::unique_ptr<Governor> Gov;
  if (Config.GovernorName == governors::GreenWebI ||
      Config.GovernorName == governors::GreenWebU) {
    GreenWebRuntime::Params P;
    P.Scenario = Config.GovernorName == governors::GreenWebI
                     ? UsageScenario::Imperceptible
                     : UsageScenario::Usable;
    auto RT = std::make_unique<GreenWebRuntime>(Registry, P);
    RT->setEnergyMeter(&Meter);
    Gov = std::move(RT);
  } else if (Config.GovernorName == governors::Interactive) {
    Gov = std::make_unique<InteractiveGovernor>();
  } else if (Config.GovernorName == governors::Powersave) {
    Gov = std::make_unique<PowersaveGovernor>();
  } else if (Config.GovernorName == governors::Ebs) {
    Gov = std::make_unique<EbsGovernor>();
  } else if (Config.GovernorName == governors::Ondemand) {
    Gov = std::make_unique<OndemandGovernor>();
  } else {
    Gov = std::make_unique<PerfGovernor>();
  }
  B.OnPageParsed = [&] {
    Registry.clear();
    Registry.loadFromPage(B);
  };
  Gov->attach(B);
  B.loadPage(App.Html);
  TimePoint Origin = Sim.now();
  for (const TraceEvent &Event : App.Full.Events)
    Sim.scheduleAt(Origin + Event.At, [&B, Event] {
      B.dispatchInput(Event.Type, Event.TargetId);
    });
  Sim.runUntil(Origin + App.Full.SessionLength + Duration::seconds(2));
  // Close the attribution ledger at the end of the measured window.
  Meter.recordSampleNow();

  printDiagnosis(Tel);
  writeTelemetryArtifacts(Artifacts, Tel, B.frameTracker().frames(),
                          Recorder.intervals());
  Gov->detach();
}

} // namespace

int main(int Argc, char **Argv) {
  TelemetryArtifactOptions Artifacts;
  bool Diagnose = false;
  unsigned Jobs = 0; // 0 = hardware concurrency.
  std::vector<std::string> Positional;
  auto Own = [&](std::string_view Arg) {
    if (Arg == "--diagnose")
      Diagnose = true;
    else if (auto V = flagValue(Arg, "--jobs="))
      return countArg(*V, Jobs);
    else if (!startsWith(Arg, "--"))
      Positional.emplace_back(Arg);
    else
      return ArgMatch::Unknown;
    return ArgMatch::Taken;
  };
  if (!Artifacts.parseArgs(Argc, Argv, Own)) {
    std::fprintf(stderr, "usage: full_evaluation [app] [governor] "
                         "[micro|full] [--jobs=N] [--diagnose] "
                         "[artifact flags]\n");
    return 2;
  }
  if (Positional.size() < 2)
    return runSweep(Jobs, Artifacts);

  ExperimentConfig Config;
  Config.AppName = Positional[0];
  Config.GovernorName = Positional[1];
  size_t Next = 2;
  if (Positional.size() > Next &&
      (Positional[Next] == "micro" || Positional[Next] == "full")) {
    if (Positional[Next] == "micro")
      Config.Mode = ExperimentMode::Micro;
    ++Next;
  }
  if (Positional.size() > Next) {
    // Legacy shorthand: a trailing path requests all three artifacts.
    std::string Path = Positional[Next];
    std::string Base = Path;
    if (size_t Dot = Base.rfind(".json");
        Dot != std::string::npos && Dot == Base.size() - 5)
      Base.resize(Dot);
    Artifacts.TracePath = Path;
    if (Artifacts.LogPath.empty())
      Artifacts.LogPath = Base + ".events.jsonl";
    if (Artifacts.MetricsPath.empty())
      Artifacts.MetricsPath = Base + ".metrics.json";
  }

  bool KnownApp = false;
  for (const std::string &Name : allAppNames())
    KnownApp |= Name == Config.AppName;
  if (!KnownApp) {
    std::fprintf(stderr, "error: unknown app '%s'\n",
                 Config.AppName.c_str());
    return 1;
  }
  printDetailed(runExperiment(Config));
  if (Artifacts.any() || Artifacts.Prof || Diagnose)
    exportTrace(Config, Artifacts);
  return 0;
}
