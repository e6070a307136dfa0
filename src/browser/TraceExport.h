//===- browser/TraceExport.h - chrome://tracing export ----------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exports a simulated session — frames with their attributed inputs,
/// plus the chip's configuration residency — as Chrome Trace Event
/// JSON, loadable in chrome://tracing or Perfetto. The paper's authors
/// debugged their frame tracker with Chrome's tracing infrastructure
/// (Sec. 6.3 credits the Chrome team); this is the equivalent lens onto
/// the simulator.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_BROWSER_TRACEEXPORT_H
#define GREENWEB_BROWSER_TRACEEXPORT_H

#include "browser/FrameTracker.h"
#include "hw/AcmpChip.h"

#include <map>
#include <string>
#include <vector>

namespace greenweb {

class SchedTrace;
class Telemetry;
namespace prof {
struct Profile;
}

/// One configuration-residency interval for the timeline's CPU track.
struct ConfigInterval {
  AcmpConfig Config;
  TimePoint Begin;
  TimePoint End;
};

/// Builds Chrome Trace Event JSON (the `[{...},...]` array format) from
/// completed frames and optional CPU configuration intervals.
///
/// Emitted events:
///  * one complete ("X") event per frame on the "frames" track, with
///    the contributing root events and worst latency as args;
///  * one complete event per input->display span on the "inputs"
///    track (the Fig. 8 latencies, visually);
///  * one complete event per configuration interval on the "cpu" track.
std::string exportChromeTrace(const std::vector<FrameRecord> &Frames,
                              const std::vector<ConfigInterval> &Cpu = {});

/// Enriched export: everything the two-argument overload emits, plus
/// tracks sourced from the telemetry hub's event log:
///  * counter ("C") events — "power_watts", "energy_joules",
///    "sim_queue_depth" from energy samples, "freq_mhz" (one series per
///    cluster, idle cluster at 0) from configuration switches, and one
///    track per generic CounterSample record;
///  * instant ("i") events on the "governor" track for every governor
///    decision and feedback action, carrying the decision's reason,
///    chosen configuration, and predicted-vs-target latency as args.
///
/// One writer emits the whole event array: after these events come the
/// host-time spans of \p Prof (prof::appendHostTraceEvents) and one
/// track per sweep worker of \p Sched (appendSchedTraceEvents), each
/// when given.
std::string exportChromeTrace(const std::vector<FrameRecord> &Frames,
                              const std::vector<ConfigInterval> &Cpu,
                              const Telemetry &Tel,
                              const prof::Profile *Prof = nullptr,
                              const SchedTrace *Sched = nullptr);

/// Records the chip's configuration timeline while attached (the chip
/// only keeps aggregate residency; this observer keeps the sequence).
class ConfigTimelineRecorder {
public:
  /// Starts recording; reads the current configuration as the first
  /// interval's start.
  explicit ConfigTimelineRecorder(AcmpChip &Chip);

  /// Closes the open interval at the current time and returns the
  /// timeline so far.
  std::vector<ConfigInterval> intervals() const;

private:
  /// Folds any configuration change since the last listener call into
  /// the closed-interval list. The chip's pre-change listener runs
  /// *before* each mutation, so a new configuration becomes visible at
  /// the *next* call; the previous call's timestamp is exactly the
  /// change instant (every setConfig notifies at its own time).
  void reconcile(TimePoint Now) const;

  AcmpChip &Chip;
  TimePoint Start;
  mutable std::vector<ConfigInterval> Closed;
  mutable AcmpConfig Current;
  mutable TimePoint CurrentSince;
  mutable TimePoint LastListenerTime;
};

} // namespace greenweb

#endif // GREENWEB_BROWSER_TRACEEXPORT_H
