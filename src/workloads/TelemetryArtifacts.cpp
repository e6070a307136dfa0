//===- workloads/TelemetryArtifacts.cpp - Shared driver flags --------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/TelemetryArtifacts.h"

#include "profiling/Profiler.h"
#include "profiling/RunMeta.h"
#include "support/FileIo.h"
#include "support/StringUtils.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/SchedTrace.h"
#include "telemetry/Telemetry.h"

#include <cstdio>
#include <string_view>

using namespace greenweb;

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
    ArgMatch M = Own ? Own(Argv[I]) : ArgMatch::Unknown;
    if (M == ArgMatch::Unknown)
      M = parseSharedFlag(*this, Argv[I]);
    if (!acceptArg(M, Argv[I]))
      return false;
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

/// Writes one requested artifact and reports it: "wrote <What> to
/// <Path>" on stdout, or the file layer's diagnostic on stderr and false.
static bool writeArtifact(const std::string &Path, std::string_view Text,
                          const char *What) {
  std::string Error;
  if (!writeFile(Path, Text, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return false;
  }
  std::printf("wrote %s to %s\n", What, Path.c_str());
  return true;
}

bool greenweb::writeTelemetryArtifacts(
    const TelemetryArtifactOptions &Opts, Telemetry &Tel,
    const std::vector<FrameRecord> &Frames,
    const std::vector<ConfigInterval> &Cpu, const SchedTrace *Sched) {
  if (!Opts.SchedPath.empty() && (!Sched || !Sched->active()))
    std::fprintf(stderr, "warning: --sched given but this code path runs "
                         "no parallel sweep; no scheduler trace written\n");
  if (!Opts.any() && !Opts.Prof)
    return true;
  Tel.flushSpans();
  prof::RunMeta Meta = prof::RunMeta::current(Opts.CommandLine);

  prof::Profile Prof;
  if (Opts.Prof) {
    if (Opts.ProfSampleMicros > 0)
      prof::stopSampler();
    prof::stop();
    Prof = prof::collect();
  }

  bool Ok = true;
  if (!Opts.TracePath.empty())
    Ok &= writeArtifact(
        Opts.TracePath,
        exportChromeTrace(Frames, Cpu, Tel, Opts.Prof ? &Prof : nullptr,
                          Sched && Sched->active() ? Sched : nullptr),
        "chrome trace");
  if (!Opts.LogPath.empty()) {
    // Header line and body in one buffer: no whole-log temporaries.
    std::string Log = Meta.toJsonlLine();
    Log += '\n';
    Tel.log().appendJsonl(Log);
    Ok &= writeArtifact(Opts.LogPath, Log, "telemetry event log");
  }
  if (!Opts.MetricsPath.empty())
    Ok &= writeArtifact(Opts.MetricsPath,
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
      Ok &= writeArtifact(Opts.BlackboxPath, Meta.wrapSnapshot(R->dumpsJson()),
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
  if (Opts.Prof) {
    const std::string &Base = Opts.ProfOut;
    Ok &= writeArtifact(Base + ".collapsed", prof::collapsedStacks(Prof),
                        "collapsed host stacks (speedscope/flamegraph.pl)");
    Ok &= writeArtifact(Base + ".txt", prof::reportTable(Prof),
                        "host profile report");
    if (!Prof.Samples.empty())
      Ok &= writeArtifact(Base + ".samples.collapsed",
                          prof::collapsedSampleStacks(Prof),
                          "sampled host stacks");
  }
  return Ok;
}

bool greenweb::writeSchedArtifact(const TelemetryArtifactOptions &Opts,
                                  const SchedTrace &Sched) {
  if (Opts.SchedPath.empty() || !Sched.active())
    return true;
  SchedReport Report = SchedReport::fromTrace(Sched);
  return writeArtifact(Opts.SchedPath, schedArtifactJson(Sched, Report),
                  "scheduler trace");
}
