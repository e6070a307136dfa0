//===- tools/gw_inspect.cpp - offline telemetry diagnosis ---------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// gw-inspect loads an exported telemetry event log (the JSONL artifact
// the examples write with --log=) and reproduces the in-process causal
// analyses offline:
//
//   gw-inspect events.jsonl                  overall summary
//   gw-inspect events.jsonl summary          same, explicitly
//   gw-inspect events.jsonl violations       one WhyReport per QoS
//                                            violation (critical path,
//                                            bottleneck stage, governor
//                                            decision context)
//   gw-inspect events.jsonl energy [N]       top-N per-annotation
//                                            energy table (default all)
//   gw-inspect events.jsonl path FRAME [ROOT]
//                                            critical path of one frame
//                                            (input chain when ROOT is
//                                            given)
//   gw-inspect events.jsonl faults           per-family fault windows,
//                                            injection counts, and the
//                                            QoS-violation rate inside
//                                            vs outside each window
//   gw-inspect events.jsonl alerts           replay the EWMA/CUSUM
//                                            anomaly detectors over the
//                                            log and verify the online
//                                            alert stream byte-for-byte
//   gw-inspect events.jsonl blackbox [--write=PATH]
//                                            replay the flight recorder
//                                            and report (or write) the
//                                            black-box dumps it would
//                                            have produced online
//   gw-inspect sched.json sched              recompute the scheduler
//                                            report from a --sched=
//                                            artifact's raw items and
//                                            verify it byte-for-byte
//                                            against the embedded copy
//   gw-inspect fleet.ckpt fleet              re-derive the fleet report
//                                            from a gw-fleet checkpoint
//                                            and verify it byte-for-byte
//                                            against the embedded copy
//
// Everything here reads only the log, so the output matches what the
// instrumented run printed from live telemetry. The alerts and blackbox
// commands run the *same* detector/recorder object code as the hub,
// which is what makes the online/offline parity check meaningful.
//
//===----------------------------------------------------------------------===//

#include "profiling/RunMeta.h"
#include "support/FileIo.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "telemetry/AnomalyDetector.h"
#include "telemetry/CriticalPath.h"
#include "telemetry/EnergyAttribution.h"
#include "telemetry/FleetReport.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/SchedTrace.h"
#include "telemetry/TelemetryLog.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

using namespace greenweb;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <events.jsonl> "
               "[summary | violations | energy [N] | path FRAME [ROOT] | "
               "faults | alerts | blackbox [--write=PATH]]\n"
               "       %s <sched.json> sched\n"
               "       %s <fleet.ckpt> fleet\n",
               Argv0, Argv0, Argv0);
  return 2;
}

/// One injected-fault window reconstructed from begin/end Fault records
/// (a window with no end record runs to the end of the log).
struct FaultWindow {
  std::string Family;
  std::string Detail;
  double BeginUs = 0.0;
  double EndUs = 0.0;
  bool Open = false; ///< No end record (window outlived the run).
  size_t Injections = 0;
  size_t Violations = 0;
};

int cmdFaults(const TelemetryLog &Log) {
  std::vector<FaultWindow> Windows;
  std::map<std::string, size_t> OpenByFamily;
  double LastTs = 0.0;
  size_t StrayInjections = 0;
  for (const TelemetryRecord &R : Log.records()) {
    LastTs = std::max(LastTs, double(R.Ts.nanos()) / 1e3);
    const FaultEventRecord *F = R.get<FaultEventRecord>();
    if (!F)
      continue;
    const std::string &Family = F->Fault;
    const std::string &Phase = F->Phase;
    if (Phase == "begin") {
      FaultWindow W;
      W.Family = Family;
      W.Detail = F->Detail;
      W.BeginUs = double(R.Ts.nanos()) / 1e3;
      W.Open = true;
      OpenByFamily[Family] = Windows.size();
      Windows.push_back(std::move(W));
    } else if (Phase == "end") {
      auto It = OpenByFamily.find(Family);
      if (It != OpenByFamily.end()) {
        Windows[It->second].EndUs = double(R.Ts.nanos()) / 1e3;
        Windows[It->second].Open = false;
        OpenByFamily.erase(It);
      }
    } else if (Phase == "inject") {
      auto It = OpenByFamily.find(Family);
      if (It != OpenByFamily.end())
        ++Windows[It->second].Injections;
      else
        ++StrayInjections; // Window-agnostic families (mislabel).
    }
  }
  if (Windows.empty() && StrayInjections == 0) {
    std::printf("no fault records in the log (run with a fault plan and "
                "--log= to capture injections).\n");
    return 0;
  }
  for (FaultWindow &W : Windows)
    if (W.Open)
      W.EndUs = LastTs;

  // Attribute each QoS violation to every window covering it; compute
  // the outside-rate from the remainder for the causal footprint.
  size_t TotalViolations = 0;
  for (const TelemetryRecord *R :
       Log.byKind(TelemetryEventKind::QosViolation)) {
    ++TotalViolations;
    double Ts = double(R->Ts.nanos()) / 1e3;
    for (FaultWindow &W : Windows)
      if (Ts >= W.BeginUs && Ts <= W.EndUs)
        ++W.Violations;
  }

  std::printf("%zu fault windows, %zu QoS violations in the log\n\n",
              Windows.size(), TotalViolations);
  std::printf("  %-18s %10s %10s %10s %11s %12s\n", "family", "begin s",
              "end s", "injections", "violations", "viol/s inside");
  for (const FaultWindow &W : Windows) {
    double Span = std::max(1e-9, (W.EndUs - W.BeginUs) / 1e6);
    std::printf("  %-18s %10.2f %9.2f%s %10zu %11zu %12.2f\n",
                W.Family.c_str(), W.BeginUs / 1e6, W.EndUs / 1e6,
                W.Open ? "+" : " ", W.Injections, W.Violations,
                double(W.Violations) / Span);
  }
  if (StrayInjections)
    std::printf("  %zu window-agnostic injections (annotation mislabels "
                "apply from parse time).\n",
                StrayInjections);

  // Overall inside/outside rate: merged coverage of all windows.
  double Covered = 0.0;
  size_t Inside = 0;
  {
    std::vector<std::pair<double, double>> Spans;
    for (const FaultWindow &W : Windows)
      Spans.push_back({W.BeginUs, W.EndUs});
    std::sort(Spans.begin(), Spans.end());
    double CurB = -1.0, CurE = -1.0;
    std::vector<std::pair<double, double>> Merged;
    for (auto &[B, E] : Spans) {
      if (B > CurE) {
        if (CurE > CurB)
          Merged.push_back({CurB, CurE});
        CurB = B;
        CurE = E;
      } else
        CurE = std::max(CurE, E);
    }
    if (CurE > CurB)
      Merged.push_back({CurB, CurE});
    for (auto &[B, E] : Merged)
      Covered += (E - B) / 1e6;
    for (const TelemetryRecord *R :
         Log.byKind(TelemetryEventKind::QosViolation)) {
      double Ts = double(R->Ts.nanos()) / 1e3;
      for (auto &[B, E] : Merged)
        if (Ts >= B && Ts <= E) {
          ++Inside;
          break;
        }
    }
  }
  double Total = LastTs / 1e6;
  double Outside = std::max(1e-9, Total - Covered);
  if (!Windows.empty()) {
    std::printf("\ncausal footprint: %zu of %zu violations inside fault "
                "windows\n",
                Inside, TotalViolations);
    std::printf("  inside rate:  %.2f violations/s over %.2f s\n",
                Covered > 0 ? double(Inside) / Covered : 0.0, Covered);
    std::printf("  outside rate: %.2f violations/s over %.2f s\n",
                double(TotalViolations - Inside) / Outside, Outside);
  }
  return 0;
}

int cmdSummary(const TelemetryLog &Log) {
  std::map<std::string, size_t> ByKind;
  for (const TelemetryRecord &R : Log.records())
    ++ByKind[telemetryEventKindName(R.Kind)];
  std::printf("%zu records", Log.size());
  const char *Sep = " (";
  for (const auto &[Kind, Count] : ByKind) {
    std::printf("%s%zu %s", Sep, Count, Kind.c_str());
    Sep = ", ";
  }
  std::printf("%s\n", ByKind.empty() ? "" : ")");

  SpanIndex Index(Log);
  size_t Truncated = 0;
  int64_t Frames = 0;
  for (const SpanRecord &S : Index.all()) {
    Truncated += S.Truncated ? 1 : 0;
    if (S.Thread == "frames")
      ++Frames;
  }
  std::printf("%zu spans (%zu truncated at flush), %lld frame windows\n",
              Index.all().size(), Truncated,
              static_cast<long long>(Frames));

  std::vector<WhyReport> Reports = buildWhyReports(Log);
  std::printf("%zu QoS violations", Reports.size());
  if (!Reports.empty()) {
    std::printf(":\n");
    for (const WhyReport &Report : Reports) {
      const PathStep *Bottleneck = Report.Path.bottleneck();
      std::printf("  frame %lld root %lld: %.3f ms against %.3f ms"
                  " -> bottleneck %s\n",
                  static_cast<long long>(Report.FrameId),
                  static_cast<long long>(Report.RootId), Report.LatencyMs,
                  Report.TargetMs,
                  Bottleneck ? Bottleneck->S.Name.c_str() : "(no spans)");
    }
  } else {
    std::printf("\n");
  }

  EnergyAttributionResult Energy = attributeEnergy(Log);
  if (Energy.Samples > 0)
    std::printf("\n%s", formatEnergyTable(Energy, 5).c_str());
  else
    std::printf("no energy samples in the log (run with sampling "
                "enabled for attribution).\n");
  std::printf("\nRun with `violations`, `energy`, or `path FRAME "
              "[ROOT]` for detail.\n");
  return 0;
}

int cmdViolations(const TelemetryLog &Log) {
  std::vector<WhyReport> Reports = buildWhyReports(Log);
  if (Reports.empty()) {
    std::printf("no QoS violations recorded.\n");
    return 0;
  }
  std::printf("%zu QoS violations\n", Reports.size());
  for (const WhyReport &Report : Reports)
    std::printf("\n%s", Report.format().c_str());
  return 0;
}

int cmdEnergy(const TelemetryLog &Log, size_t N) {
  EnergyAttributionResult Energy = attributeEnergy(Log);
  if (Energy.Samples == 0) {
    std::printf("no energy samples in the log (run with sampling "
                "enabled for attribution).\n");
    return 0;
  }
  std::printf("%s", formatEnergyTable(Energy, N).c_str());
  return 0;
}

int cmdPath(const TelemetryLog &Log, int64_t FrameId, int64_t RootId) {
  SpanIndex Index(Log);
  CriticalPathResult Path = extractCriticalPath(
      Index, FrameId, RootId, /*TargetMs=*/-1.0,
      /*IncludeInputChain=*/RootId != 0);
  if (Path.Steps.empty()) {
    std::fprintf(stderr, "no spans recorded for frame %lld\n",
                 static_cast<long long>(FrameId));
    return 1;
  }
  std::printf("critical path of frame %lld", static_cast<long long>(FrameId));
  if (RootId != 0)
    std::printf(" from root %lld", static_cast<long long>(RootId));
  std::printf(" (%.3f ms end to end):\n", Path.TotalMs);
  for (size_t I = 0; I < Path.Steps.size(); ++I) {
    const PathStep &Step = Path.Steps[I];
    std::printf("  %-24s %-14s wait %8.3f ms  dur %8.3f ms%s%s\n",
                Step.S.Name.c_str(), Step.S.Thread.c_str(), Step.WaitMs,
                Step.S.durationMs(),
                Step.Candidate ? "" : "  (container)",
                int(I) == Path.Bottleneck ? "  <- bottleneck" : "");
  }
  return 0;
}

void printAlert(const TelemetryRecord &R) {
  const AlertRecord &A = R.as<AlertRecord>();
  std::printf("  %10.3f s  %-16s value %10.3f  baseline %10.3f  "
              "score %7.2f  %s  n=%lld\n",
              R.Ts.nanos() / 1e9, A.Detector.c_str(), A.Value, A.Baseline,
              A.Score, A.Dir > 0 ? "up  " : "down",
              static_cast<long long>(A.N));
}

/// Replays the detectors over the log and checks the regenerated alert
/// stream against the Alert records the online run left behind.
int cmdAlerts(const TelemetryLog &Log) {
  DetectorBank Bank;
  std::vector<TelemetryRecord> Replayed =
      replayObservability(Log, Bank, /*Recorder=*/nullptr);
  std::vector<const TelemetryRecord *> Logged =
      Log.byKind(TelemetryEventKind::Alert);

  if (Replayed.empty() && Logged.empty()) {
    std::printf("no alerts: offline replay is quiet and the log carries "
                "no alert records.\n");
    return 0;
  }
  std::printf("%zu alert(s) from offline replay:\n", Replayed.size());
  for (const TelemetryRecord &R : Replayed)
    printAlert(R);

  if (Logged.empty()) {
    std::printf("\nlog carries no alert records (produced without "
                "--alerts); offline detection only, parity not "
                "checked.\n");
    return 0;
  }

  // Byte-level parity: each regenerated alert must serialize exactly
  // like its online counterpart, in the same order.
  size_t Mismatches = 0;
  size_t Common = std::min(Replayed.size(), Logged.size());
  for (size_t I = 0; I < Common; ++I) {
    std::string Offline = telemetryRecordJson(Replayed[I]);
    std::string Online = telemetryRecordJson(*Logged[I]);
    if (Offline != Online) {
      ++Mismatches;
      std::fprintf(stderr,
                   "parity mismatch at alert %zu:\n  online:  %s\n"
                   "  offline: %s\n",
                   I, Online.c_str(), Offline.c_str());
    }
  }
  if (Replayed.size() != Logged.size()) {
    std::fprintf(stderr,
                 "parity mismatch: %zu online alert(s) vs %zu from "
                 "offline replay\n",
                 Logged.size(), Replayed.size());
    return 1;
  }
  if (Mismatches) {
    std::fprintf(stderr, "FAIL: %zu of %zu alert(s) differ between "
                         "online and offline detection\n",
                 Mismatches, Common);
    return 1;
  }
  std::printf("\nonline/offline parity OK: %zu alert(s) reproduced "
              "byte-for-byte.\n",
              Logged.size());
  return 0;
}

/// Replays the flight recorder (with the detector bank feeding its
/// alert trigger) and reports the dumps it would have produced.
int cmdBlackbox(const TelemetryLog &Log, const std::string &WritePath) {
  DetectorBank Bank;
  FlightRecorder Recorder;
  replayObservability(Log, Bank, &Recorder);

  std::printf("%llu trigger(s), %zu black box(es) (%llu suppressed by "
              "cooldown, %llu beyond the dump cap)\n",
              static_cast<unsigned long long>(Recorder.triggers()),
              Recorder.dumps().size(),
              static_cast<unsigned long long>(Recorder.suppressed()),
              static_cast<unsigned long long>(Recorder.dropped()));
  for (size_t I = 0; I < Recorder.dumps().size(); ++I) {
    const BlackBoxDump &D = Recorder.dumps()[I];
    std::printf("  [%zu] %10.3f s  %-14s %-28s %zu record(s)\n", I,
                D.Ts.nanos() / 1e9, D.Trigger.c_str(), D.Detail.c_str(),
                D.Records.size());
  }
  if (!WritePath.empty()) {
    std::string Error;
    if (!writeFile(WritePath, Recorder.dumpsJson(), &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
    std::printf("wrote black-box dumps to %s\n", WritePath.c_str());
  }
  return 0;
}

/// Prints the recomputed report \p Formatted, then checks its JSON
/// \p Offline byte-for-byte against the \p Embedded copy the producer
/// wrote: 0 on a match or when there is no embedded copy to check, 1 on
/// a mismatch. \p What names the report, \p Source what it was
/// recomputed from.
int checkReplayParity(const std::string &Formatted,
                      const std::string &Embedded,
                      const std::string &Offline, const char *What,
                      const char *Source) {
  std::printf("%s", Formatted.c_str());
  if (Embedded.empty()) {
    std::printf("\nno embedded %s (a partial run?); offline "
                "recomputation only, parity not checked.\n", What);
    return 0;
  }
  if (Offline != Embedded) {
    std::fprintf(stderr,
                 "parity mismatch between the embedded %s and the "
                 "offline recomputation:\n  embedded: %s\n  offline:  "
                 "%s\n",
                 What, Embedded.c_str(), Offline.c_str());
    return 1;
  }
  std::printf("\nreplay parity OK: %s reproduced byte-for-byte from %s.\n",
              What, Source);
  return 0;
}

/// Rebuilds the scheduler trace from a --sched= artifact, recomputes
/// the report from the raw items, and verifies it against the embedded
/// copy (the offline analog of the alerts parity check).
int cmdSched(const std::string &Text, const char *Argv0) {
  SchedTrace Trace;
  std::string Error;
  if (!schedTraceFromArtifact(Text, Trace, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return usage(Argv0);
  }
  SchedReport Report = SchedReport::fromTrace(Trace);
  return checkReplayParity(Report.format(),
                           schedReportSectionFromArtifact(Text),
                           Report.toJson(), "report",
                           "the raw scheduler items");
}

/// Re-derives the fleet report from a gw-fleet checkpoint's folded
/// state and verifies it against the embedded copy — the fleet analog
/// of the sched parity gate.
int cmdFleet(const std::string &Text, const char *Argv0) {
  FleetCheckpoint C;
  std::string Error;
  if (!FleetCheckpoint::load(Text, C, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return usage(Argv0);
  }
  FleetReport Report = FleetReport::fromCheckpoint(C);
  return checkReplayParity(Report.format(), C.ReportJson, Report.toJson(),
                           "fleet report", "the checkpoint state");
}

} // namespace

int main(int Argc, char **Argv) {
  // Unified CLI contract (shared with gw-diff): unknown flags or
  // commands and unreadable input all print usage to stderr and exit 2.
  std::string WritePath;
  std::vector<const char *> Positional;
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (Arg.rfind("--write=", 0) == 0)
      WritePath = std::string(Arg.substr(8));
    else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag %s\n", Argv[I]);
      return usage(Argv[0]);
    } else
      Positional.push_back(Argv[I]);
  }
  if (Positional.empty())
    return usage(Argv[0]);

  std::string Text, Error;
  if (!readFile(Positional[0], Text, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return usage(Argv[0]);
  }

  // The sched artifact is a single JSON document, not a JSONL log;
  // dispatch before the line-oriented parsing below.
  if (Positional.size() > 1 && std::strcmp(Positional[1], "sched") == 0)
    return cmdSched(Text, Argv[0]);
  if (Positional.size() > 1 && std::strcmp(Positional[1], "fleet") == 0)
    return cmdFleet(Text, Argv[0]);

  // Logs written since the RunMeta header landed open with a
  // {"kind":"meta",...} line; surface it rather than counting it as a
  // malformed record.
  bool HasMeta = false;
  {
    size_t LineEnd = Text.find('\n');
    std::string_view First(Text.data(), LineEnd == std::string::npos
                                            ? Text.size()
                                            : LineEnd);
    if (First.find("\"kind\":\"meta\"") != std::string_view::npos)
      if (auto Doc = json::parse(First)) {
        prof::RunMeta Meta;
        if (!prof::RunMeta::fromJson(*Doc, Meta, &Error)) {
          std::fprintf(stderr, "error: %s\n", Error.c_str());
          return usage(Argv[0]);
        }
        std::printf("run metadata: commit %s, %s build, %s, %u hardware "
                    "threads (schema %d)\n",
                    Meta.GitCommit.c_str(), Meta.BuildType.c_str(),
                    Meta.Compiler.c_str(), Meta.HardwareThreads,
                    Meta.Schema);
        if (!Meta.Governor.empty())
          std::printf("governor: %s\n", Meta.Governor.c_str());
        if (!Meta.Flags.empty())
          std::printf("produced by: %s\n", Meta.Flags.c_str());
        std::printf("\n");
        HasMeta = true;
      }
  }

  std::vector<size_t> Malformed;
  TelemetryLog Log = TelemetryLog::fromJsonl(Text, nullptr, &Malformed);
  const char *Cmd = Positional.size() > 1 ? Positional[1] : "summary";
  const char *Commands[] = {"summary", "violations", "faults", "alerts",
                            "blackbox", "energy",     "path"};
  if (std::none_of(std::begin(Commands), std::end(Commands),
                   [Cmd](const char *C) { return std::strcmp(Cmd, C) == 0; })) {
    std::fprintf(stderr, "error: unknown command '%s'\n", Cmd);
    return usage(Argv[0]);
  }
  // A malformed line is refused, except a final line with no newline:
  // that is the tail of a run that died mid-write, so it is skipped with
  // a warning.
  size_t LastLine = size_t(std::count(Text.begin(), Text.end(), '\n')) + 1;
  for (size_t Line : Malformed) {
    if (Line == 1 && HasMeta)
      continue;
    if (Line != LastLine) {
      std::fprintf(stderr, "error: %s:%zu: malformed telemetry record\n",
                   Positional[0], Line);
      return usage(Argv[0]);
    }
    std::fprintf(stderr, "warning: skipped truncated final line %zu\n",
                 Line);
  }
  if (Log.empty()) {
    std::fprintf(stderr, "error: %s holds no telemetry records\n",
                 Positional[0]);
    return usage(Argv[0]);
  }
  if (std::strcmp(Cmd, "summary") == 0)
    return cmdSummary(Log);
  if (std::strcmp(Cmd, "violations") == 0)
    return cmdViolations(Log);
  if (std::strcmp(Cmd, "faults") == 0)
    return cmdFaults(Log);
  if (std::strcmp(Cmd, "alerts") == 0)
    return cmdAlerts(Log);
  if (std::strcmp(Cmd, "blackbox") == 0)
    return cmdBlackbox(Log, WritePath);
  // Positional numbers parse as strictly as flag values.
  auto Invalid = [&](const char *Value) {
    std::fprintf(stderr, "error: invalid value for %s: %s\n", Cmd, Value);
    return usage(Argv[0]);
  };
  if (std::strcmp(Cmd, "energy") == 0) {
    std::optional<size_t> N =
        Positional.size() > 2 ? parseCount<size_t>(Positional[2]) : 0;
    return N ? cmdEnergy(Log, *N) : Invalid(Positional[2]);
  }
  // The one command left: path FRAME [ROOT].
  if (Positional.size() < 3)
    return usage(Argv[0]);
  std::optional<int64_t> Frame = parseInt(Positional[2]);
  std::optional<int64_t> Root =
      Positional.size() > 3 ? parseInt(Positional[3]) : 0;
  if (!Frame)
    return Invalid(Positional[2]);
  return Root ? cmdPath(Log, *Frame, *Root) : Invalid(Positional[3]);
}
