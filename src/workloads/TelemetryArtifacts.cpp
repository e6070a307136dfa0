//===- workloads/TelemetryArtifacts.cpp - Shared artifact flags -------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/TelemetryArtifacts.h"

#include "profiling/Profiler.h"
#include "profiling/RunMeta.h"
#include "support/StringUtils.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/SchedTrace.h"
#include "telemetry/Telemetry.h"

#include <cstdio>
#include <fstream>
#include <string_view>

using namespace greenweb;

bool TelemetryArtifactOptions::parseFlag(const std::string &Arg) {
  auto Match = [&Arg](const char *Prefix, std::string &Out) {
    size_t Len = std::string_view(Prefix).size();
    if (Arg.compare(0, Len, Prefix) != 0)
      return false;
    Out = Arg.substr(Len);
    return true;
  };
  if (Arg == "--prof") {
    Prof = true;
    return true;
  }
  if (Match("--prof-out=", ProfOut)) {
    Prof = true;
    return true;
  }
  if (Arg.compare(0, 14, "--prof-sample=") == 0) {
    ProfSampleMicros =
        uint64_t(parseInt(std::string_view(Arg).substr(14)).value_or(1000));
    Prof = true;
    return true;
  }
  if (Arg == "--alerts") {
    Alerts = true;
    return true;
  }
  if (Arg == "--progress") {
    Progress = true;
    return true;
  }
  return Match("--trace=", TracePath) || Match("--log=", LogPath) ||
         Match("--metrics=", MetricsPath) ||
         Match("--blackbox=", BlackboxPath) ||
         Match("--sched=", SchedPath);
}

void TelemetryArtifactOptions::beginRun(int Argc, char **Argv) {
  CommandLine = prof::joinCommandLine(Argc, Argv);
  if (!Prof)
    return;
  prof::start();
  if (ProfSampleMicros > 0)
    prof::startSampler(ProfSampleMicros);
}

void TelemetryArtifactOptions::configureHub(Telemetry &Tel) const {
  if (Alerts)
    Tel.enableAnomalyDetectors();
  if (!BlackboxPath.empty())
    Tel.enableFlightRecorder();
}

static void writeOne(const std::string &Path, const std::string &Content,
                     const char *What) {
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s to %s\n", What,
                 Path.c_str());
    return;
  }
  Out << Content;
  std::printf("wrote %s to %s\n", What, Path.c_str());
}

void greenweb::writeTelemetryArtifacts(
    const TelemetryArtifactOptions &Opts, Telemetry &Tel,
    const std::vector<FrameRecord> &Frames,
    const std::vector<ConfigInterval> &Cpu, const SchedTrace *Sched) {
  if (!Opts.SchedPath.empty() && (!Sched || !Sched->active()))
    std::fprintf(stderr, "warning: --sched given but this code path runs "
                         "no parallel sweep; no scheduler trace written\n");
  if (!Opts.any() && !Opts.Prof)
    return;
  Tel.flushSpans();
  prof::RunMeta Meta = prof::RunMeta::current(Opts.CommandLine);

  prof::Profile Prof;
  if (Opts.Prof) {
    if (Opts.ProfSampleMicros > 0)
      prof::stopSampler();
    prof::stop();
    Prof = prof::collect();
  }

  if (!Opts.TracePath.empty())
    writeOne(Opts.TracePath,
             exportChromeTrace(Frames, Cpu, Tel, Opts.Prof ? &Prof : nullptr,
                               Sched && Sched->active() ? Sched : nullptr),
             "chrome trace");
  if (!Opts.LogPath.empty()) {
    // Header line and body in one buffer: no whole-log temporaries.
    std::string Log = Meta.toJsonlLine();
    Log += '\n';
    Tel.log().appendJsonl(Log);
    writeOne(Opts.LogPath, Log, "telemetry event log");
  }
  if (!Opts.MetricsPath.empty())
    writeOne(Opts.MetricsPath,
             Meta.wrapSnapshot(Tel.metrics().snapshotJson()),
             "metrics snapshot");
  if (Opts.Alerts) {
    size_t NAlerts = Tel.log().byKind(TelemetryEventKind::Alert).size();
    std::printf("online detectors emitted %zu alert(s)%s\n", NAlerts,
                Opts.LogPath.empty() ? "" : " (in the event log)");
  }
  if (!Opts.BlackboxPath.empty()) {
    const FlightRecorder *R = Tel.flightRecorder();
    if (R) {
      writeOne(Opts.BlackboxPath, Meta.wrapSnapshot(R->dumpsJson()),
               "flight-recorder black box");
      std::printf("flight recorder: %zu dump(s), %llu trigger(s)\n",
                  R->dumps().size(),
                  static_cast<unsigned long long>(R->triggers()));
    } else {
      std::fprintf(stderr,
                   "warning: --blackbox given but no flight recorder was "
                   "attached to this hub\n");
    }
  }
  if (Opts.Prof)
    prof::writeProfileFiles(Prof, Opts.ProfOut);
}

void greenweb::writeSchedArtifact(const TelemetryArtifactOptions &Opts,
                                  const SchedTrace &Sched) {
  if (Opts.SchedPath.empty() || !Sched.active())
    return;
  SchedReport Report = SchedReport::fromTrace(Sched);
  writeOne(Opts.SchedPath, schedArtifactJson(Sched, Report),
           "scheduler trace");
}
