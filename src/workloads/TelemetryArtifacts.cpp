//===- workloads/TelemetryArtifacts.cpp - Shared driver flags --------------===//
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

std::optional<std::string_view> greenweb::flagValue(std::string_view Arg,
                                                   std::string_view Prefix) {
  if (!startsWith(Arg, Prefix))
    return std::nullopt;
  return Arg.substr(Prefix.size());
}

namespace {

/// The shared flags of TelemetryArtifactOptions.
ArgMatch parseSharedFlag(TelemetryArtifactOptions &O, std::string_view Arg) {
  auto Path = [Arg](std::string_view Prefix, std::string &Out) {
    std::optional<std::string_view> V = flagValue(Arg, Prefix);
    if (V)
      Out = *V;
    return bool(V);
  };
  if (Arg == "--prof" || Path("--prof-out=", O.ProfOut)) {
    O.Prof = true;
    return ArgMatch::Taken;
  }
  if (std::optional<std::string_view> V = flagValue(Arg, "--prof-sample=")) {
    O.Prof = true;
    return countArg(*V, O.ProfSampleMicros);
  }
  if (Arg == "--alerts")
    O.Alerts = true;
  else if (Arg == "--progress")
    O.Progress = true;
  else if (!Path("--trace=", O.TracePath) && !Path("--log=", O.LogPath) &&
           !Path("--metrics=", O.MetricsPath) &&
           !Path("--blackbox=", O.BlackboxPath) &&
           !Path("--sched=", O.SchedPath))
    return ArgMatch::Unknown;
  return ArgMatch::Taken;
}

} // namespace

bool TelemetryArtifactOptions::parseArgs(int Argc, char **Argv,
                                         const ArgHandler &Own) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    ArgMatch M = Own ? Own(Arg) : ArgMatch::Unknown;
    if (M == ArgMatch::Unknown)
      M = parseSharedFlag(*this, Arg);
    if (M == ArgMatch::Unknown) {
      std::fprintf(stderr, "error: unknown %s %s\n",
                   startsWith(Arg, "-") ? "flag" : "argument", Argv[I]);
      return false;
    }
    if (M == ArgMatch::Malformed) {
      std::string_view Flag = Arg.substr(0, Arg.find('='));
      std::fprintf(stderr, "error: invalid value for %.*s: %s\n",
                   int(Flag.size()), Flag.data(), Argv[I]);
      return false;
    }
  }
  CommandLine = prof::joinCommandLine(Argc, Argv);
  if (Prof) {
    prof::start();
    if (ProfSampleMicros > 0)
      prof::startSampler(ProfSampleMicros);
  }
  return true;
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
