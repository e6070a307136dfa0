//===- greenweb/PredictiveGovernor.cpp - Learned DVFS governor ------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "greenweb/PredictiveGovernor.h"

#include "browser/Browser.h"
#include "hw/AcmpChip.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>

using namespace greenweb;

PredictiveGovernor::PredictiveGovernor(AnnotationRegistry &Registry,
                                       Params P, Options O)
    : GreenWebRuntime(Registry, P), Opts(O) {
  if (!Opts.Model)
    LoadError = "no model configured";
  else if (!Opts.Model->loaded())
    LoadError = "model is untrained (no nodes)";
  else
    Model = Opts.Model;
}

std::string PredictiveGovernor::name() const {
  return params().Scenario == UsageScenario::Imperceptible ? "Predictive-I"
                                                           : "Predictive-U";
}

void PredictiveGovernor::attach(Browser &Browser_) {
  GreenWebRuntime::attach(Browser_);
  // The model's levels are indices into this chip's ladder; a model
  // trained against a different ladder shape must not steer this chip.
  LadderMatches = Model && Model->LadderLevels == Ladder.size();
  if (Model && !LadderMatches)
    LoadError = formatString(
        "model ladder (%zu levels) does not match this chip (%zu levels)",
        Model->LadderLevels, Ladder.size());
  PStats.ModelLoaded = LadderMatches;
  Quarantined = false;
  Extractor.reset();
  Boosts.clear();
}

void PredictiveGovernor::onInputDispatched(uint64_t RootId,
                                           const std::string &Type,
                                           Element *Target) {
  if (B)
    Extractor.noteInput(B->chip().simulator().now());
  GreenWebRuntime::onInputDispatched(RootId, Type, Target);
}

void PredictiveGovernor::onFrameReady(const FrameRecord &Frame) {
  // Close the loop before the base class erases completed single
  // events: violations on model-driven frames boost the chosen level,
  // comfortable streaks decay the boost.
  if (B && LadderMatches) {
    Frame.worstLatencyByRoot(BoostRoots);
    for (const auto &[Root, Latency] : BoostRoots) {
      auto It = ActiveEvents.find(Root);
      if (It == ActiveEvents.end())
        continue;
      const ActiveEvent &Event = It->second;
      Duration Effective = Event.Spec.Type == QosType::Continuous
                               ? Frame.ReadyTime - Frame.BeginTime
                               : Latency;
      if (stats().WatchdogTrips > 0) {
        // Quarantine: the LTM path owns every remaining decision, but
        // keys the model had been serving never finished profiling. A
        // NeedMinProfile key would pay its min-profile frames at the
        // ladder floor right when the environment is at its worst —
        // the exact stall the watchdog exists to prevent. Seed those
        // fits from whatever the floor frames observe instead; the
        // recalibration hair-trigger cleans up any seed the fault
        // window distorted.
        ModelState &State = Models[Event.Key];
        if (State.ModelPhase != Phase::Ready)
          seedModel(State, Event.Spec.Type == QosType::Continuous,
                    Effective, Frame);
        continue;
      }
      if (InFallback)
        continue;
      Feedback &F = Boosts[Event.Key];
      if (F.Suspended) {
        // Suspended keys run on the LTM path with the conservative
        // offset their seed installed. The base loop's own decay wants
        // frames 20% under target, which an accurately seeded fit at a
        // boosted config rarely produces — so the predictive side
        // decays it on any non-violating streak instead, reclaiming
        // the energy once the key proves stable. Violations ratchet
        // the offset back up through the base loop as usual.
        ModelState &State = Models[Event.Key];
        if (Effective <= Event.Target && State.FeedbackOffset > 0) {
          if (++F.SafeStreak >= kDecayStreak) {
            --State.FeedbackOffset;
            F.SafeStreak = 0;
          }
        } else if (Effective > Event.Target) {
          F.SafeStreak = 0;
        }
        continue;
      }
      if (Effective > Event.Target) {
        double Overshoot =
            (Effective - Event.Target).secs() / Event.Target.secs();
        bool AtCap = F.Boost >= kMaxBoost;
        if (Overshoot > kGrossMissFraction ||
            (AtCap && ++F.MaxBoostViolations >= kSuspendStreak)) {
          // The model is out of its depth on this key: suspend it and
          // let the LTM path own the rest of the run. The base class
          // kept profiling the model-driven frames (handleEventFrame
          // sees every frame), so its fit is often Ready already; when
          // it is not, pre-calibrate it from this frame — the frame's
          // truly frequency-independent charge is the fixed term, and
          // every other observed millisecond (execution cycles and
          // queueing behind other frames, both of which speed up with
          // the clock) is converted to equivalent cycles at the config
          // the frame ran at — so the handover spends no profiling
          // frames either way.
          F.Suspended = true;
          ModelState &State = Models[Event.Key];
          if (State.ModelPhase != Phase::Ready)
            seedModel(State, Event.Spec.Type == QosType::Continuous,
                      Effective, Frame);
          ++PStats.KeySuspensions;
          bumpMetric("governor.predictive_suspensions");
        } else if (!AtCap) {
          ++F.Boost;
          ++PStats.FeedbackBoosts;
          bumpMetric("governor.predictive_boosts");
        }
        F.SafeStreak = 0;
      } else if (Effective.secs() < kComfortFraction * Event.Target.secs()) {
        if (++F.SafeStreak >= kDecayStreak) {
          if (F.Boost > 0)
            --F.Boost;
          F.SafeStreak = 0;
        }
      } else {
        F.SafeStreak = 0;
      }
    }
  }
  Extractor.noteFrame(Frame);
  GreenWebRuntime::onFrameReady(Frame);
}

void PredictiveGovernor::seedModel(ModelState &State, bool Continuous,
                                   Duration Effective,
                                   const FrameRecord &Frame) {
  // One-point fit with optimistic attribution: the frame's truly
  // frequency-independent charge is the fixed term, and every other
  // observed millisecond (execution cycles and queueing behind other
  // frames, both of which speed up with the clock) is converted to
  // equivalent cycles at the config the frame ran at — so the handover
  // to the LTM path spends no profiling frames.
  double ScalableSecs = std::max(0.0, (Effective - Frame.FixedCharged).secs());
  State.Model.Independent = Frame.FixedCharged;
  State.Model.Cycles =
      ScalableSecs * B->chip().effectiveHzFor(B->chip().config());
  State.ModelPhase = Phase::Ready;
  // Deliberately no forced recalibration: sending the key back through
  // a min-config profiling frame in the middle of a fault window is
  // worse than any error the one-point fit carries.
  State.ConsecutiveMispredicts = 0;
  // Seeding always follows a failure, so a continuous key's handover
  // opens with the conservatism the LTM feedback loop would have
  // ratcheted up to by now; its rapid frames let the predictive side's
  // non-violating-streak decay reclaim the energy within ~100ms once
  // the key proves stable. Single keys see one frame per interaction —
  // a lingering offset there burns whole frames at an inflated config
  // against a fit that is typically already accurate — so they hand
  // over without it.
  if (Continuous)
    State.FeedbackOffset =
        std::max(State.FeedbackOffset, kSeedFeedbackOffset);
}

std::optional<GreenWebRuntime::Desired>
PredictiveGovernor::predictOverride(const ActiveEvent &Event) {
  if (!LadderMatches || Ladder.empty())
    return std::nullopt;
  // A watchdog trip is the runtime's own signal that the environment
  // has left the distribution the model was trained on (thermal caps,
  // latency spikes, injected noise). From the first trip on, the whole
  // run belongs to the proven LTM + watchdog machinery; a fleet model
  // must never argue with the safety net.
  if (stats().WatchdogTrips > 0) {
    if (!Quarantined) {
      Quarantined = true;
      ++PStats.WatchdogQuarantines;
      bumpMetric("governor.predictive_quarantines");
    }
    return std::nullopt;
  }
  // No frame history yet: the cost features are all zeros, which the
  // training set deliberately excludes. Let the LTM path (max-profile
  // first) take the opening frame.
  if (!Extractor.hasHistory()) {
    ++PStats.ColdStartFallbacks;
    bumpMetric("governor.cold_start_fallbacks");
    return std::nullopt;
  }
  // A key that violated its way through the whole boost range is one
  // the model cannot serve; the LTM path owns it for the rest of the
  // run.
  if (auto It = Boosts.find(Event.Key);
      It != Boosts.end() && It->second.Suspended)
    return std::nullopt;
  // The model key is "tag|type|spec"; the middle field is the event
  // type the feature schema encodes.
  std::vector<std::string_view> Parts = split(Event.Key, '|');
  int Kind = eventKindCode(
      Parts.size() > 1 ? std::string(Parts[1]) : std::string());
  AcmpConfig Cur = B->chip().config();
  DecisionTreeModel::Prediction Pred = Model->predict(Extractor.features(
      B->chip().simulator().now(), Event.Spec.Type == QosType::Continuous,
      Event.Target.millis(), Kind, Cur.Core == CoreKind::Big,
      double(Cur.FreqMHz)));
  if (Pred.Confidence < Opts.ConfidenceThreshold) {
    ++PStats.LowConfidenceFallbacks;
    bumpMetric("governor.low_confidence_fallbacks");
    return std::nullopt;
  }
  int Boost = 0;
  if (auto It = Boosts.find(Event.Key); It != Boosts.end())
    Boost = It->second.Boost;
  int Level = std::clamp(Pred.Level + Boost, 0, int(Ladder.size()) - 1);
  ++PStats.ModelPredictions;
  bumpMetric("governor.model_predictions");
  return Desired{Ladder[size_t(Level)], "model", -1.0, Boost};
}
