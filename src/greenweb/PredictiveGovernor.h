//===- greenweb/PredictiveGovernor.h - Learned DVFS governor ----*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PredictiveGovernor: the GreenWeb runtime with its per-decision
/// config choice replaced by a fleet-trained decision tree (Yuan et
/// al.). Where the LTM runtime spends two profiling frames per
/// (element, event) model before it can predict — the visible QoS
/// violations of Fig. 9b — the predictive governor answers from frame
/// zero using a model trained offline on fleet telemetry.
///
/// Everything around the decision is inherited unchanged: event
/// lifetime bookkeeping, max-across-events arbitration, idle-hold, the
/// graceful-degradation watchdog, telemetry decision spans. When the
/// model is missing, untrained, or answers below the confidence
/// threshold, predictOverride declines and the decision falls through
/// to the full LTM profile/predict path — degraded operation is exactly
/// the proven baseline, never something weaker.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_GREENWEB_PREDICTIVEGOVERNOR_H
#define GREENWEB_GREENWEB_PREDICTIVEGOVERNOR_H

#include "greenweb/Features.h"
#include "greenweb/GreenWebRuntime.h"

namespace greenweb {

/// GreenWebRuntime whose decisions come from a trained model first.
class PredictiveGovernor : public GreenWebRuntime {
public:
  struct Options {
    /// The trained model (not owned); outlives the governor. Null runs
    /// the LTM path for every decision (DecisionTreeModel::loadFile reads
    /// a model file).
    const DecisionTreeModel *Model = nullptr;
    /// Leaf vote share below which the model's answer is discarded and
    /// the LTM path decides instead. A prediction at exactly the
    /// threshold is used (>= semantics).
    double ConfidenceThreshold = 0.6;
  };

  struct PredictiveStats {
    uint64_t ModelPredictions = 0;
    uint64_t LowConfidenceFallbacks = 0;
    uint64_t ColdStartFallbacks = 0;
    uint64_t FeedbackBoosts = 0;
    uint64_t KeySuspensions = 0;
    /// Runs where a watchdog trip permanently benched the model.
    uint64_t WatchdogQuarantines = 0;
    bool ModelLoaded = false;
  };

  PredictiveGovernor(AnnotationRegistry &Registry, Params P, Options O);

  std::string name() const override;
  void attach(Browser &B) override;

  void onInputDispatched(uint64_t RootId, const std::string &Type,
                         Element *Target) override;
  void onFrameReady(const FrameRecord &Frame) override;

  const PredictiveStats &predictiveStats() const { return PStats; }
  /// Why the model is unusable ("" when loaded and valid).
  const std::string &modelError() const { return LoadError; }

protected:
  std::optional<Desired> predictOverride(const ActiveEvent &Event) override;

  /// Pre-calibrates a key's DVFS fit from one observed frame so the
  /// handover to the LTM path spends no profiling frames. Continuous
  /// keys additionally open with a conservative feedback offset (see
  /// kSeedFeedbackOffset).
  void seedModel(ModelState &State, bool Continuous, Duration Effective,
                 const FrameRecord &Frame);

private:
  /// Near-misses nudge the level up one step; a streak of comfortable
  /// frames decays the boost. The base runtime's feedback only runs on
  /// Phase::Ready decisions, which the model path bypasses, so the
  /// predictive path carries its own closed loop. A gross miss
  /// (overshoot beyond kGrossMissFraction of the target), or a key that
  /// still violates with the boost pinned at kMaxBoost, is out of the
  /// model's competence: the key is suspended for the rest of the run
  /// and its decisions fall through to the LTM path — pre-calibrated
  /// from the violating frame's observed cost, so the handover needs no
  /// profiling frames.
  static constexpr int kMaxBoost = 4;
  static constexpr double kGrossMissFraction = 0.3;
  static constexpr double kComfortFraction = 0.8;
  static constexpr unsigned kDecayStreak = 8;
  static constexpr unsigned kSuspendStreak = 2;
  /// FeedbackOffset a freshly seeded key opens with: seeding always
  /// follows a failure, so the LTM handover starts with the
  /// conservatism the feedback loop would have ratcheted up to by now.
  /// The predictive side decays it on any non-violating streak (the
  /// base loop's own decay criterion is too strict for an accurately
  /// seeded fit), so clean runs reclaim the energy within a few dozen
  /// frames while fault windows keep it.
  static constexpr int kSeedFeedbackOffset = 2;

  struct Feedback {
    int Boost = 0;
    unsigned SafeStreak = 0;
    unsigned MaxBoostViolations = 0;
    bool Suspended = false;
  };

  Options Opts;
  const DecisionTreeModel *Model = nullptr; ///< Null unless usable.
  std::string LoadError;
  bool LadderMatches = false;
  bool Quarantined = false;
  FeatureExtractor Extractor;
  std::map<std::string, Feedback> Boosts;
  /// Per-frame buffer of onFrameReady, reused (the base class keeps
  /// its own, filled after this one is consumed).
  std::vector<RootLatency> BoostRoots;
  PredictiveStats PStats;
};

} // namespace greenweb

#endif // GREENWEB_GREENWEB_PREDICTIVEGOVERNOR_H
