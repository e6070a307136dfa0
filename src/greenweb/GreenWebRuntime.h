//===- greenweb/GreenWebRuntime.h - The GreenWeb runtime ---------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The GreenWeb runtime of Sec. 6: a QoS-aware governor that consumes
/// the page's GreenWeb annotations and drives the ACMP chip so that each
/// annotated event's frames meet their QoS target with minimal energy.
///
/// Operation per annotated event:
///  1. On input dispatch, look up the (element, event) QoS spec; the
///     active target is TI or TU depending on the usage scenario.
///  2. While the per-(element, event) DVFS model is uncalibrated, run
///     profiling frames: one at the maximum configuration, one at the
///     minimum (the source of the visible QoS violations on single-type
///     events in Fig. 9b), then solve Equ. 1.
///  3. Once calibrated, sweep the configuration space for the
///     minimum-energy configuration meeting the target (Sec. 6.2) and
///     apply it; "single" events are optimized only until their response
///     frame, "continuous" events for every associated frame until the
///     event quiesces (Sec. 6.4).
///  4. Use measured frame latencies as feedback: violations step the
///     configuration up, over-predictions step it down, and repeated
///     mispredictions trigger re-profiling.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_GREENWEB_GREENWEBRUNTIME_H
#define GREENWEB_GREENWEB_GREENWEBRUNTIME_H

#include "browser/FrameTracker.h"
#include "greenweb/AnnotationRegistry.h"
#include "greenweb/Governors.h"
#include "greenweb/PerfModel.h"
#include "greenweb/Qos.h"

#include <deque>
#include <map>
#include <optional>
#include <string>

namespace greenweb {

class EnergyMeter;

/// The GreenWeb QoS-aware governor.
class GreenWebRuntime : public Governor, public FrameObserver {
public:
  struct Params {
    /// Battery scenario: selects TI or TU as the active target.
    UsageScenario Scenario = UsageScenario::Imperceptible;
    /// Headroom kept below the target when choosing configurations.
    double SafetyMargin = 0.95;
    /// Relative prediction error above which a frame counts as a
    /// misprediction.
    double MispredictTolerance = 0.50;
    /// Consecutive mispredictions before the model is re-profiled.
    unsigned RecalibrateAfter = 6;
    /// Consecutive comfortably-on-target frames before one feedback
    /// boost level decays (the "opposite adjustment" of Sec. 6.2 for
    /// transient complexity bumps).
    unsigned FeedbackDecayAfter = 10;
    /// Feedback fine-tuning on measured latencies (ablation A1 turns
    /// this off).
    bool EnableFeedback = true;
    /// Mis-annotation defense (Sec. 8): when set, annotation targets
    /// are clamped to be no tighter than the Table 1 defaults for the
    /// annotated QoS type, so an adversarially low target cannot pin
    /// the chip at peak performance.
    bool ClampTargetsToDefaults = false;
    /// UAI energy-budget policy (Sec. 8): once the attached meter shows
    /// this many joules consumed, ClampTargetsToDefaults switches on
    /// automatically.
    std::optional<double> EnergyBudgetJoules;
    /// How long to hold the last configuration after the final active
    /// event quiesces before dropping to the idle configuration.
    /// Prevents migration thrash between back-to-back scroll events.
    Duration IdleHold = Duration::milliseconds(400);
    /// Graceful-degradation watchdog: when enabled, sustained
    /// predicted-vs-actual divergence (or repeated violations) trips a
    /// fallback that pins a conservative frequency floor, then
    /// re-engages prediction once the floor has held QoS clean for a
    /// while (calibrated models are kept: a persistent fault re-trips
    /// cheaply instead of forcing a recalibration storm). The defense
    /// against injected hardware/workload faults (docs/ROBUSTNESS.md).
    bool EnableWatchdog = false;
    /// Sliding window of recent calibrated frames the watchdog judges.
    unsigned WatchdogWindow = 8;
    /// Bad frames (mispredicted or violating) within the window that
    /// trip the fallback.
    unsigned WatchdogTripThreshold = 4;
    /// Minimum time the fallback floor is held before re-engagement is
    /// considered. Held long on purpose: most injected faults persist
    /// for seconds, and every premature re-engagement is a fresh burst
    /// of mispredicted frames before the next trip. A re-trip shortly
    /// after re-engagement doubles the effective hold (up to
    /// WatchdogMaxHoldFactor x), so a persistent fault converges to
    /// mostly-pinned operation instead of cycling.
    Duration WatchdogHold = Duration::seconds(3);
    /// Exponential-backoff ceiling on the effective hold, as a multiple
    /// of WatchdogHold.
    unsigned WatchdogMaxHoldFactor = 16;
    /// Ladder position of the fallback floor (0 = idle config, 1 = the
    /// peak config). Defaults to peak: under active faults the model
    /// cannot be trusted, so QoS is preserved at an energy cost.
    double WatchdogFloorPosition = 1.0;
  };

  /// Statistics exposed for the evaluation and ablations.
  struct Stats {
    uint64_t AnnotatedEvents = 0;
    uint64_t UnannotatedEvents = 0;
    uint64_t ProfilingFrames = 0;
    uint64_t PredictedFrames = 0;
    uint64_t FeedbackStepsUp = 0;
    uint64_t FeedbackStepsDown = 0;
    uint64_t Recalibrations = 0;
    uint64_t TargetClampsApplied = 0;
    uint64_t WatchdogTrips = 0;
    uint64_t WatchdogReengages = 0;
    uint64_t WatchdogFloorFrames = 0;
  };

  explicit GreenWebRuntime(AnnotationRegistry &Registry);
  GreenWebRuntime(AnnotationRegistry &Registry, Params P);

  /// --- Governor interface ---
  std::string name() const override;
  void attach(Browser &B) override;
  void detach() override;

  /// Optional energy meter used by the UAI energy-budget defense.
  void setEnergyMeter(const EnergyMeter *Meter) { Meter_ = Meter; }

  /// --- FrameObserver interface ---
  void onInputDispatched(uint64_t RootId, const std::string &Type,
                         Element *Target) override;
  void onFrameReady(const FrameRecord &Frame) override;
  void onEventQuiescent(uint64_t RootId) override;

  const Stats &stats() const { return Counters; }
  const Params &params() const { return P; }

  /// Number of events currently being optimized.
  size_t activeEventCount() const { return ActiveEvents.size(); }

protected:
  /// Calibration state of one (element, event) model.
  enum class Phase { NeedMaxProfile, NeedMinProfile, Ready };

  struct ModelState {
    Phase ModelPhase = Phase::NeedMaxProfile;
    LatencyObservation MaxObs;
    DvfsModel Model;
    /// Ladder-level offset applied on top of predictions by feedback.
    int FeedbackOffset = 0;
    unsigned ConsecutiveMispredicts = 0;
    /// Frames in a row that landed comfortably under the target while a
    /// boost was active.
    unsigned SafeStreak = 0;
  };

  struct ActiveEvent {
    uint64_t RootId = 0;
    std::string Key;
    QosSpec Spec;
    Duration Target;
  };

  /// One configuration choice with its provenance; feeds both the chip
  /// and the telemetry decision log.
  struct Desired {
    AcmpConfig Config;
    const char *Reason = "";  ///< "profile_max", "profile_min", "predicted".
    double PredictedMs = -1.0; ///< Model prediction at Config (<0 = n/a).
    int FeedbackOffset = 0;
  };

  /// Extension point for derived governors (the PredictiveGovernor):
  /// consulted first in desiredConfigFor; returning a value bypasses
  /// the profile/predict state machine for this decision while keeping
  /// everything else — watchdog, idle-hold, telemetry decision spans,
  /// max-across-events arbitration — identical. Return std::nullopt to
  /// defer to the LTM path.
  virtual std::optional<Desired> predictOverride(const ActiveEvent &Event) {
    (void)Event;
    return std::nullopt;
  }

  std::string modelKey(const Element *Target, const std::string &Type,
                       const QosSpec &Spec) const;
  Duration resolveTarget(const QosSpec &Spec);
  /// The configuration this event wants right now.
  Desired desiredConfigFor(const ActiveEvent &Event);
  /// Telemetry hub reachable through the attached browser's simulator
  /// (nullptr when detached or none is attached).
  Telemetry *telemetry() const;
  /// Mirrors a Stats increment into the telemetry registry.
  void bumpMetric(const char *Name);
  /// Emits a zero-length "decision:<reason>" span on the governor track
  /// so traces and critical-path reports can anchor decision points.
  void recordDecisionSpan(Telemetry &T, const std::string &Reason,
                          int64_t RootId);
  /// Applies the highest-performance desired configuration across all
  /// active events, or the idle (minimum) configuration when none.
  void applyDesiredConfig();
  /// Handles one frame attributed to an active event.
  void handleEventFrame(ActiveEvent &Event, const FrameRecord &Frame,
                        Duration Latency);
  /// Shifts \p Config by \p Levels steps along the config ladder.
  AcmpConfig shiftConfig(const AcmpConfig &Config, int Levels) const;
  void maybeEngageEnergyBudget();

  /// --- Watchdog (see Params::EnableWatchdog) ---
  AcmpConfig watchdogFloorConfig() const;
  /// Feeds one frame verdict into the sliding window; may trip the
  /// fallback. Call only after all per-frame model state access — a
  /// trip resets per-model feedback state.
  void noteWatchdogFrame(bool Bad);
  void tripWatchdog();
  void maybeReengageWatchdog();

  AnnotationRegistry &Registry;
  Params P;
  Browser *B = nullptr;
  const EnergyMeter *Meter_ = nullptr;
  std::vector<AcmpConfig> Ladder;

  std::map<std::string, ModelState> Models;
  std::map<uint64_t, ActiveEvent> ActiveEvents;
  /// Per-frame buffer of onFrameReady, reused across frames.
  std::vector<RootLatency> WorstByRoot;
  std::vector<uint64_t> SinglesDone;
  EventHandle IdleDrop;
  Stats Counters;

  /// Watchdog state: recent frame verdicts (true = bad). In normal
  /// operation "bad" means mispredicted-or-violating; during fallback
  /// it means violating (prediction is suspended there).
  std::deque<bool> WatchdogRecent;
  bool InFallback = false;
  TimePoint FallbackUntil;
  /// Effective hold with backoff applied (see Params::WatchdogHold).
  Duration CurrentHold = Duration::zero();
  TimePoint LastReengage;
  bool HasReengaged = false;
};

} // namespace greenweb

#endif // GREENWEB_GREENWEB_GREENWEBRUNTIME_H
