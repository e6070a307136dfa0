//===- workloads/TelemetryArtifacts.h - Shared driver flags -----*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command line every driver shares (the examples and the bench
/// harnesses), its strict parser, and the writer that turns a Telemetry
/// hub into the on-disk artifacts gw-inspect consumes:
///
///   --trace=trace.json      enriched Chrome Trace Event timeline
///   --log=events.jsonl      structured telemetry event log (JSONL)
///   --metrics=metrics.json  metrics registry snapshot
///
/// plus the online observability switches:
///
///   --alerts                enable the EWMA/CUSUM anomaly detectors;
///                           Alert records land in the event log
///   --blackbox=box.json     enable the flight recorder and write its
///                           black-box dumps to this file
///
/// plus the host-side profiler switches shared by every driver:
///
///   --prof                  enable gw_prof scope capture
///   --prof-out=BASE         output base for profile files (implies --prof)
///   --prof-sample=MICROS    also run the timer sampler (implies --prof)
///
/// plus the sweep scheduler-observability switches:
///
///   --sched=sched.json      export the parallel-sweep scheduler trace +
///                           report (replayable via `gw-inspect sched`)
///   --progress              live progress line on stderr while a sweep
///                           runs (TTY-aware, throttled)
///
/// Logs and metrics snapshots carry a RunMeta header (schema, commit,
/// build, compiler, host threads, producing command line) so gw-diff
/// can refuse apples-to-oranges comparisons.
///
/// A driver parses its argv once through parseArgs (its own flags ride
/// along in a handler; unknown flags and malformed values exit 2) and
/// ends with one writeTelemetryArtifacts call, which also stops the
/// profiler and writes its files.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_WORKLOADS_TELEMETRYARTIFACTS_H
#define GREENWEB_WORKLOADS_TELEMETRYARTIFACTS_H

#include "browser/TraceExport.h"
#include "support/StringUtils.h"

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace greenweb {

class SchedTrace;
class Telemetry;

/// A driver's own argument handler (see TelemetryArtifactOptions::
/// parseArgs).
using ArgHandler = std::function<ArgMatch(std::string_view Arg)>;

/// Parsed artifact destinations; empty paths mean "not requested".
struct TelemetryArtifactOptions {
  std::string TracePath;
  std::string LogPath;
  std::string MetricsPath;
  bool Alerts = false;          ///< --alerts (online anomaly detectors)
  std::string BlackboxPath;     ///< --blackbox= (flight-recorder dumps)
  bool Prof = false;            ///< --prof / --prof-out / --prof-sample
  std::string ProfOut = "gw-prof"; ///< Output base for profile files.
  uint64_t ProfSampleMicros = 0;   ///< Timer-sampler period (0 = off).
  std::string SchedPath;           ///< --sched= (scheduler trace artifact)
  bool Progress = false;           ///< --progress (live sweep meter)
  std::string CommandLine;         ///< Producing argv, for meta headers.

  /// True when at least one artifact was requested (drivers use this to
  /// decide whether to attach a telemetry hub at all). Alerts and the
  /// black box need a hub too.
  bool any() const {
    return !TracePath.empty() || !LogPath.empty() || !MetricsPath.empty() ||
           Alerts || !BlackboxPath.empty();
  }

  /// Parses argv[1..Argc): each argument goes to \p Own first (the
  /// driver's own flags and positionals), then to the shared flags
  /// above. On an argument neither takes, or a malformed value
  /// (`--prof-sample=abc`, or one \p Own reports), prints
  /// "error: unknown flag ..." or "error: invalid value for ..." to
  /// stderr and returns false; the driver then prints its usage and
  /// exits 2. On success it records the producing command line (for
  /// artifact meta headers) and starts the host-side profiler when
  /// requested, so call it once, before the workload runs.
  bool parseArgs(int Argc, char **Argv, const ArgHandler &Own = nullptr);

  /// Arms the requested online observability on \p Tel (detectors for
  /// --alerts, flight recorder for --blackbox=). Call on each hub after
  /// construction, before the run it instruments.
  void configureHub(Telemetry &Tel) const;
};

/// Writes every requested artifact from \p Tel. Open spans are flushed
/// first (marked open=1 in the log) so the export always holds a
/// complete span DAG. \p Frames and \p Cpu feed the trace's base
/// frame/input/cpu tracks and the input->frame flow arrows; pass empty
/// vectors when only the telemetry-derived tracks matter. Each written
/// file is reported on stdout.
///
/// Logs get a leading RunMeta JSONL line and metrics snapshots a
/// leading "meta" member. When profiling was requested the profiler is
/// stopped here, its host-time spans join the Chrome trace, and the
/// profile files (<ProfOut>.collapsed/.txt/...) are written.
/// When a scheduler trace is active, \p Sched adds one Perfetto track
/// per sweep worker to the exported Chrome trace; with `--sched=` set
/// but \p Sched null (a driver code path that runs no parallel sweep) a
/// warning goes to stderr instead of silently writing nothing.
/// Returns false when any requested file could not be written (each
/// failure is reported on stderr); drivers then exit 1.
bool writeTelemetryArtifacts(const TelemetryArtifactOptions &Opts,
                             Telemetry &Tel,
                             const std::vector<FrameRecord> &Frames = {},
                             const std::vector<ConfigInterval> &Cpu = {},
                             const SchedTrace *Sched = nullptr);

/// Writes the `--sched=` artifact (raw scheduler trace + embedded
/// report, replayable via `gw-inspect sched`). No-op when SchedPath is
/// empty or the trace never saw a batch. False when the write fails.
bool writeSchedArtifact(const TelemetryArtifactOptions &Opts,
                        const SchedTrace &Sched);

} // namespace greenweb

#endif // GREENWEB_WORKLOADS_TELEMETRYARTIFACTS_H
