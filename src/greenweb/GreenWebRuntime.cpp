//===- greenweb/GreenWebRuntime.cpp - The GreenWeb runtime ----------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "greenweb/GreenWebRuntime.h"

#include "browser/Browser.h"
#include "hw/AcmpChip.h"
#include "hw/EnergyMeter.h"
#include "profiling/Profiler.h"
#include "support/StringUtils.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace greenweb;

GreenWebRuntime::GreenWebRuntime(AnnotationRegistry &Registry)
    : GreenWebRuntime(Registry, Params{}) {}

GreenWebRuntime::GreenWebRuntime(AnnotationRegistry &Registry, Params PIn)
    : Registry(Registry), P(PIn) {}

std::string GreenWebRuntime::name() const {
  return P.Scenario == UsageScenario::Imperceptible ? "GreenWeb-I"
                                                    : "GreenWeb-U";
}

void GreenWebRuntime::attach(Browser &Browser_) {
  B = &Browser_;
  Ladder = buildConfigLadder(B->chip());
  B->addFrameObserver(this);
  // Idle: conserve energy until an annotated event arrives.
  B->chip().setConfig(B->chip().spec().minConfig());
}

void GreenWebRuntime::detach() {
  IdleDrop.cancel();
  if (B)
    B->removeFrameObserver(this);
  B = nullptr;
  ActiveEvents.clear();
}

Telemetry *GreenWebRuntime::telemetry() const {
  if (!B)
    return nullptr;
  Telemetry *T = B->simulator().telemetry();
  return T && T->enabled() ? T : nullptr;
}

void GreenWebRuntime::bumpMetric(const char *Name) {
  if (Telemetry *T = telemetry())
    T->metrics().counter(Name).add();
}

std::string GreenWebRuntime::modelKey(const Element *Target,
                                      const std::string &Type,
                                      const QosSpec &Spec) const {
  // Key per (element tag, event type, QoS spec): same-shaped widgets
  // (a grid of story tiles, a set of menu panels) share one calibrated
  // model, so the two profiling runs amortize across the whole widget
  // family instead of repeating per element.
  return formatString("%s|%s|%s",
                      Target ? Target->tagName().c_str() : "?",
                      Type.c_str(), Spec.str().c_str());
}

Duration GreenWebRuntime::resolveTarget(const QosSpec &Spec) {
  Duration Target = activeTarget(Spec, P.Scenario);
  if (!P.ClampTargetsToDefaults)
    return Target;
  // Defense against aggressive annotations: never chase a target
  // tighter than the Table 1 default for the QoS type.
  QosTarget Default = Spec.Type == QosType::Continuous
                          ? defaultContinuousTarget()
                          : defaultSingleShortTarget();
  Duration Floor = P.Scenario == UsageScenario::Imperceptible
                       ? Default.Imperceptible
                       : Default.Usable;
  if (Target < Floor) {
    ++Counters.TargetClampsApplied;
    return Floor;
  }
  return Target;
}

void GreenWebRuntime::maybeEngageEnergyBudget() {
  if (!P.EnergyBudgetJoules || !Meter_ || P.ClampTargetsToDefaults)
    return;
  if (Meter_->totalJoules() >= *P.EnergyBudgetJoules)
    P.ClampTargetsToDefaults = true;
}

void GreenWebRuntime::onInputDispatched(uint64_t RootId,
                                        const std::string &Type,
                                        Element *Target) {
  assert(B && "input before attach");
  maybeEngageEnergyBudget();

  std::optional<QosSpec> Spec =
      Target ? Registry.lookup(*Target, Type) : std::nullopt;
  if (!Spec) {
    ++Counters.UnannotatedEvents;
    bumpMetric("governor.unannotated_events");
    return;
  }
  ++Counters.AnnotatedEvents;
  bumpMetric("governor.annotated_events");

  ActiveEvent Event;
  Event.RootId = RootId;
  Event.Key = modelKey(Target, Type, *Spec);
  Event.Spec = *Spec;
  Event.Target = resolveTarget(*Spec);
  ActiveEvents[RootId] = std::move(Event);
  applyDesiredConfig();
}

GreenWebRuntime::Desired
GreenWebRuntime::desiredConfigFor(const ActiveEvent &Event) {
  if (std::optional<Desired> Override = predictOverride(Event))
    return *Override;
  ModelState &State = Models[Event.Key];
  const AcmpSpec &Spec = B->chip().spec();
  switch (State.ModelPhase) {
  case Phase::NeedMaxProfile:
    return {Spec.maxConfig(), "profile_max", -1.0, 0};
  case Phase::NeedMinProfile:
    return {Spec.minConfig(), "profile_min", -1.0, 0};
  case Phase::Ready: {
    ConfigChoice Choice = chooseMinEnergyConfig(
        B->chip(), State.Model, Event.Target, P.SafetyMargin);
    AcmpConfig Config = shiftConfig(Choice.Config, State.FeedbackOffset);
    double PredictedMs =
        State.Model.predict(B->chip().effectiveHzFor(Config)).millis();
    return {Config, "predicted", PredictedMs, State.FeedbackOffset};
  }
  }
  return {Spec.maxConfig(), "fallback", -1.0, 0};
}

AcmpConfig GreenWebRuntime::shiftConfig(const AcmpConfig &Config,
                                        int Levels) const {
  if (Levels == 0)
    return Config;
  auto It = std::find(Ladder.begin(), Ladder.end(), Config);
  assert(It != Ladder.end() && "config not on the ladder");
  int Index = int(It - Ladder.begin());
  Index = std::clamp(Index + Levels, 0, int(Ladder.size()) - 1);
  return Ladder[size_t(Index)];
}

void GreenWebRuntime::applyDesiredConfig() {
  if (!B)
    return;
  GW_PROF_SCOPE("governor.apply_config");
  if (ActiveEvents.empty()) {
    // Hold the current configuration briefly: a scroll stream delivers
    // a new input within milliseconds and immediate idling would
    // thrash cluster migrations.
    if (IdleDrop.isActive())
      return;
    IdleDrop = B->simulator().schedule(P.IdleHold, [this] {
      if (B && ActiveEvents.empty()) {
        AcmpConfig Idle = B->chip().spec().minConfig();
        if (B->chip().setConfig(Idle))
          if (Telemetry *T = telemetry()) {
            T->recordGovernorDecision(
                {name(), "idle_drop", Idle.str(),
                 Idle.Core == CoreKind::Big ? 1 : 0,
                 int64_t(Idle.FreqMHz), 0, "", -1.0, -1.0, 0});
            recordDecisionSpan(*T, "idle_drop", 0);
          }
      }
    });
    return;
  }
  IdleDrop.cancel();
  if (InFallback) {
    // Watchdog fallback: the calibrated models are suspect, so pin the
    // conservative floor instead of predicting.
    AcmpConfig Floor = watchdogFloorConfig();
    if (Telemetry *T = telemetry()) {
      T->recordGovernorDecision(
          {name(), "watchdog_floor", Floor.str(),
           Floor.Core == CoreKind::Big ? 1 : 0, int64_t(Floor.FreqMHz), 0,
           "", -1.0, -1.0, 0});
      recordDecisionSpan(*T, "watchdog_floor", 0);
    }
    B->chip().setConfig(Floor);
    return;
  }
  // Multiple concurrent events: satisfy the most demanding one.
  std::optional<Desired> Best;
  const ActiveEvent *BestEvent = nullptr;
  for (auto &[Root, Event] : ActiveEvents) {
    Desired Want = desiredConfigFor(Event);
    if (!Best || B->chip().effectiveHzFor(Want.Config) >
                     B->chip().effectiveHzFor(Best->Config)) {
      Best = Want;
      BestEvent = &Event;
    }
  }
  if (Telemetry *T = telemetry()) {
    T->recordGovernorDecision(
        {name(), Best->Reason, Best->Config.str(),
         Best->Config.Core == CoreKind::Big ? 1 : 0,
         int64_t(Best->Config.FreqMHz), int64_t(BestEvent->RootId),
         BestEvent->Key, Best->PredictedMs,
         BestEvent->Target.millis(), Best->FeedbackOffset});
    recordDecisionSpan(*T, Best->Reason, int64_t(BestEvent->RootId));
  }
  B->chip().setConfig(Best->Config);
}

void GreenWebRuntime::recordDecisionSpan(Telemetry &T,
                                         const std::string &Reason,
                                         int64_t RootId) {
  // Zero-length marker on the governor track; critical-path reports use
  // it to correlate "what did the governor last decide for this root".
  SpanTracer &Tr = T.spans();
  int64_t Id = Tr.begin("decision:" + Reason, "governor", RootId, 0,
                        /*Parent=*/0);
  Tr.end(Id);
}

void GreenWebRuntime::onFrameReady(const FrameRecord &Frame) {
  assert(B && "frame before attach");
  GW_PROF_SCOPE("governor.on_frame");
  maybeEngageEnergyBudget();

  // An event may appear in several messages of one frame (batched
  // ticks); handle each root once with its worst latency.
  Frame.worstLatencyByRoot(WorstByRoot);
  SinglesDone.clear();
  for (const auto &[Root, Latency] : WorstByRoot) {
    auto It = ActiveEvents.find(Root);
    if (It == ActiveEvents.end())
      continue;
    // Continuous (smoothness) targets constrain per-frame production
    // latency; single (responsiveness) targets the input-to-display
    // delay.
    Duration Effective = It->second.Spec.Type == QosType::Continuous
                             ? Frame.ReadyTime - Frame.BeginTime
                             : Latency;
    handleEventFrame(It->second, Frame, Effective);
    // A "single" event is optimized only up to its response frame
    // (Sec. 6.4); post-frame work runs at the idle configuration.
    if (It->second.Spec.Type == QosType::Single)
      SinglesDone.push_back(Root);
  }
  for (uint64_t Root : SinglesDone)
    ActiveEvents.erase(Root);

  applyDesiredConfig();
}

void GreenWebRuntime::handleEventFrame(ActiveEvent &Event,
                                       const FrameRecord &Frame,
                                       Duration Latency) {
  bool Violated = Latency > Event.Target;
  if (Telemetry *T = telemetry())
    if (Violated)
      T->recordQosViolation({name(), int64_t(Event.RootId), Event.Key,
                             Latency.millis(), Event.Target.millis(),
                             int64_t(Frame.FrameId),
                             Event.Spec.Type == QosType::Continuous
                                 ? "continuous"
                                 : "single"});

  if (InFallback) {
    // Prediction is suspended; judge only whether the floor holds QoS.
    ++Counters.WatchdogFloorFrames;
    noteWatchdogFrame(Violated);
    maybeReengageWatchdog();
    return;
  }

  ModelState &State = Models[Event.Key];
  AcmpConfig Config = B->chip().config();

  switch (State.ModelPhase) {
  case Phase::NeedMaxProfile:
    ++Counters.ProfilingFrames;
    bumpMetric("governor.profiling_frames");
    State.MaxObs = {Config, Latency};
    State.ModelPhase = Phase::NeedMinProfile;
    // Profiling frames count toward the watchdog window too: under an
    // active fault the runtime recalibrates in a loop, and the repeated
    // profiling violations are exactly the churn the watchdog must
    // catch. Last statement - a trip invalidates State.
    if (P.EnableWatchdog)
      noteWatchdogFrame(Violated);
    return;
  case Phase::NeedMinProfile: {
    ++Counters.ProfilingFrames;
    bumpMetric("governor.profiling_frames");
    LatencyObservation MinObs{Config, Latency};
    std::optional<DvfsModel> Model =
        fitDvfsModel(B->chip(), State.MaxObs, MinObs);
    if (Model) {
      State.Model = *Model;
      State.ModelPhase = Phase::Ready;
      State.FeedbackOffset = 0;
      State.ConsecutiveMispredicts = 0;
    }
    // else: same effective frequency twice (another event pinned the
    // chip); keep waiting for a distinct observation.
    if (P.EnableWatchdog)
      noteWatchdogFrame(Violated);
    return;
  }
  case Phase::Ready:
    break;
  }

  ++Counters.PredictedFrames;
  bumpMetric("governor.predicted_frames");
  Duration Predicted = State.Model.predict(B->chip().effectiveHzFor(Config));
  double Pred = std::max(1e-9, Predicted.secs());
  double Measured = Latency.secs();
  bool Mispredicted =
      std::fabs(Measured - Pred) / Pred > P.MispredictTolerance;
  if (Mispredicted)
    bumpMetric("governor.mispredictions");

  auto NoteFeedback = [&](const char *Action) {
    if (Telemetry *T = telemetry())
      T->recordFeedbackAction({name(), Action, Event.Key,
                               State.FeedbackOffset, Latency.millis(),
                               Predicted.millis(),
                               Event.Target.millis()});
  };

  if (P.EnableFeedback) {
    if (Latency > Event.Target) {
      // Under-prediction: step one level up (little top migrates to
      // big, Sec. 6.2).
      ++State.FeedbackOffset;
      ++Counters.FeedbackStepsUp;
      NoteFeedback("step_up");
      State.SafeStreak = 0;
    } else if (State.FeedbackOffset > 0) {
      // Over-prediction path: once the boost has been comfortably
      // unnecessary for a while, undo one level. This makes transient
      // complexity bumps decay instead of ratcheting the chip up
      // permanently.
      bool Comfortable = Measured < Pred * (1.0 - P.MispredictTolerance) ||
                         Latency < Event.Target * 0.8;
      if (Comfortable && ++State.SafeStreak >= P.FeedbackDecayAfter) {
        --State.FeedbackOffset;
        ++Counters.FeedbackStepsDown;
        NoteFeedback("step_down");
        State.SafeStreak = 0;
      }
    } else {
      State.SafeStreak = 0;
    }
    State.FeedbackOffset = std::clamp(State.FeedbackOffset, 0, 6);
  }

  if (Mispredicted) {
    if (++State.ConsecutiveMispredicts >= P.RecalibrateAfter) {
      // The workload shifted (e.g. frame-complexity surge): re-profile.
      State.ModelPhase = Phase::NeedMaxProfile;
      State.ConsecutiveMispredicts = 0;
      State.FeedbackOffset = 0;
      ++Counters.Recalibrations;
      NoteFeedback("recalibrate");
    }
  } else {
    State.ConsecutiveMispredicts = 0;
  }

  // Last: a trip invalidates Models (and the State reference above).
  if (P.EnableWatchdog)
    noteWatchdogFrame(Mispredicted || Violated);
}

AcmpConfig GreenWebRuntime::watchdogFloorConfig() const {
  assert(!Ladder.empty() && "watchdog before attach");
  double Pos = std::clamp(P.WatchdogFloorPosition, 0.0, 1.0);
  size_t Index = size_t(std::lround(Pos * double(Ladder.size() - 1)));
  return Ladder[Index];
}

void GreenWebRuntime::noteWatchdogFrame(bool Bad) {
  WatchdogRecent.push_back(Bad);
  while (WatchdogRecent.size() > P.WatchdogWindow)
    WatchdogRecent.pop_front();
  if (InFallback)
    return;
  unsigned BadCount = 0;
  for (bool B_ : WatchdogRecent)
    BadCount += B_ ? 1 : 0;
  if (BadCount >= P.WatchdogTripThreshold)
    tripWatchdog();
}

void GreenWebRuntime::tripWatchdog() {
  TimePoint Now = B->simulator().now();
  // Backoff: a trip soon after re-engagement means the fault outlived
  // the previous hold — hold the floor twice as long this time. A trip
  // after a long healthy stretch starts from the configured hold again.
  Duration MaxHold = P.WatchdogHold * double(
      std::max(1u, P.WatchdogMaxHoldFactor));
  if (HasReengaged && Now - LastReengage < CurrentHold)
    CurrentHold = std::min(CurrentHold * 2.0, MaxHold);
  else
    CurrentHold = P.WatchdogHold;
  InFallback = true;
  FallbackUntil = Now + CurrentHold;
  WatchdogRecent.clear();
  // Keep the calibrated models: observations are recorded against the
  // configuration the chip actually ran, so most faults (throttling,
  // flaky DVFS) leave them valid and the environment, not the model, is
  // what misbehaves. Re-profiling every key after each trip would turn
  // a persistent fault into a recalibration storm of guaranteed
  // min-profile violations. A genuinely corrupted model (cost spikes
  // during profiling) recalibrates through the normal mispredict path
  // after re-engagement. Only the transient feedback state is reset.
  for (auto &[Key, State] : Models) {
    State.ConsecutiveMispredicts = 0;
    State.SafeStreak = 0;
  }
  ++Counters.WatchdogTrips;
  bumpMetric("governor.watchdog_trips");
  // The "watchdog_fallback" decision record doubles as the flight
  // recorder's watchdog_trip trigger (telemetry/FlightRecorder.h), so
  // an attached recorder snapshots the ring of records leading here.
  if (Telemetry *T = telemetry()) {
    AcmpConfig Floor = watchdogFloorConfig();
    T->recordGovernorDecision(
        {name(), "watchdog_fallback", Floor.str(),
         Floor.Core == CoreKind::Big ? 1 : 0, int64_t(Floor.FreqMHz), 0, "",
         -1.0, -1.0, 0});
    recordDecisionSpan(*T, "watchdog_fallback", 0);
  }
}

void GreenWebRuntime::maybeReengageWatchdog() {
  if (!InFallback || B->simulator().now() < FallbackUntil)
    return;
  // Re-engage only once the floor has demonstrably held QoS: a
  // half-window of consecutive clean frames since the hold expired.
  size_t Needed = std::max<size_t>(1, P.WatchdogWindow / 2);
  if (WatchdogRecent.size() < Needed)
    return;
  for (bool Bad : WatchdogRecent)
    if (Bad)
      return;
  InFallback = false;
  WatchdogRecent.clear();
  LastReengage = B->simulator().now();
  HasReengaged = true;
  ++Counters.WatchdogReengages;
  bumpMetric("governor.watchdog_reengages");
  if (Telemetry *T = telemetry()) {
    T->recordGovernorDecision({name(), "watchdog_reengage",
                               B->chip().config().str(),
                               B->chip().config().Core == CoreKind::Big ? 1
                                                                        : 0,
                               int64_t(B->chip().config().FreqMHz), 0, "",
                               -1.0, -1.0, 0});
    recordDecisionSpan(*T, "watchdog_reengage", 0);
  }
}

void GreenWebRuntime::onEventQuiescent(uint64_t RootId) {
  if (ActiveEvents.erase(RootId) > 0)
    applyDesiredConfig();
}
