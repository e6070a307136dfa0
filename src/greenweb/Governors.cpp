//===- greenweb/Governors.cpp - Baseline CPU governors ---------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "greenweb/Governors.h"

#include "browser/Browser.h"
#include "support/StringUtils.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>

using namespace greenweb;

namespace {

/// Applies \p Config and, when it actually changed, logs the decision.
/// Baseline governors log only effective changes: their timers
/// re-evaluate continuously and an unchanged choice carries no signal.
bool applyAndLog(Browser &B, const std::string &Gov, const char *Reason,
                 const AcmpConfig &Config) {
  bool Changed = B.chip().setConfig(Config);
  if (!Changed)
    return false;
  if (Telemetry *T = B.simulator().telemetry(); T && T->enabled()) {
    GovernorDecisionRecord R;
    R.Governor = Gov;
    R.Reason = Reason;
    R.Config = Config.str();
    R.CoreIsBig = Config.Core == CoreKind::Big ? 1 : 0;
    R.FreqMHz = int64_t(Config.FreqMHz);
    T->recordGovernorDecision(R);
  }
  return true;
}

} // namespace

Governor::~Governor() = default;

void Governor::detach() {}

std::vector<AcmpConfig> greenweb::buildConfigLadder(const AcmpChip &Chip) {
  std::vector<AcmpConfig> Ladder;
  for (const AcmpChip::ConfigPoint &Point : Chip.configPoints())
    Ladder.push_back(Point.Config);
  std::stable_sort(Ladder.begin(), Ladder.end(),
                   [&Chip](const AcmpConfig &A, const AcmpConfig &B) {
                     return Chip.effectiveHzFor(A) < Chip.effectiveHzFor(B);
                   });
  return Ladder;
}

void PerfGovernor::attach(Browser &B) {
  applyAndLog(B, name(), "pin_peak", B.chip().spec().maxConfig());
}

void PowersaveGovernor::attach(Browser &B) {
  applyAndLog(B, name(), "pin_min", B.chip().spec().minConfig());
}

//===----------------------------------------------------------------------===//
// Interactive
//===----------------------------------------------------------------------===//

namespace {

/// Utilization of the busiest browser thread over the last window.
double sampleMaxUtilization(Browser &B, Duration (&LastBusy)[3],
                            TimePoint &LastSample) {
  SimThread *Threads[3] = {&B.mainThread(), &B.compositorThread(),
                           &B.browserThread()};
  Duration Window = B.simulator().now() - LastSample;
  LastSample = B.simulator().now();
  double MaxUtil = 0.0;
  for (int I = 0; I < 3; ++I) {
    Duration Busy = Threads[I]->totalBusyTime();
    Duration Delta = Busy - LastBusy[I];
    LastBusy[I] = Busy;
    if (!Window.isZero())
      MaxUtil = std::max(MaxUtil, double(Delta.nanos()) /
                                      double(Window.nanos()));
  }
  return std::min(1.0, MaxUtil);
}

} // namespace

InteractiveGovernor::InteractiveGovernor() : P(Params{}) {}

InteractiveGovernor::InteractiveGovernor(Params PIn) : P(PIn) {}

void InteractiveGovernor::attach(Browser &Browser_) {
  B = &Browser_;
  Ladder = buildConfigLadder(B->chip());
  for (Duration &Busy : LastBusy)
    Busy = Duration::zero();
  LastSample = B->simulator().now();
  LastRaise = B->simulator().now();
  // Boot at the lowest speed, as after idle.
  B->chip().setConfig(Ladder.front());
  if (P.TouchBoost)
    B->addFrameObserver(this);
  Timer = B->simulator().schedule(P.Timer, [this] { onTimer(); });
}

void InteractiveGovernor::detach() {
  Timer.cancel();
  if (B && P.TouchBoost)
    B->removeFrameObserver(this);
  B = nullptr;
}

void InteractiveGovernor::onInputDispatched(uint64_t /*RootId*/,
                                            const std::string & /*Type*/,
                                            Element * /*Target*/) {
  // Input booster: pulse to hispeed immediately; the regular timer path
  // decides when load allows dropping again.
  if (!B)
    return;
  applyAndLog(*B, name(), "touch_boost", Ladder.back());
  LastRaise = B->simulator().now();
}

void InteractiveGovernor::onFrameReady(const FrameRecord & /*Frame*/) {}

void InteractiveGovernor::onTimer() {
  assert(B && "timer fired while detached");
  double Util = sampleUtilization();
  AcmpChip &Chip = B->chip();
  AcmpConfig Current = Chip.config();
  double CurrentHz = Chip.effectiveHzFor(Current);
  TimePoint Now = B->simulator().now();

  AcmpConfig Desired = Current;
  if (Util >= P.GoHispeedLoad) {
    // Load burst: jump to the highest speed (hispeed_freq == max).
    Desired = Ladder.back();
  } else {
    // Track the target load proportionally.
    double DesiredHz = CurrentHz * Util / P.TargetLoad;
    Desired = Ladder.front();
    for (const AcmpConfig &Config : Ladder) {
      Desired = Config;
      if (Chip.effectiveHzFor(Config) >= DesiredHz)
        break;
    }
  }

  double DesiredHz = Chip.effectiveHzFor(Desired);
  if (DesiredHz > CurrentHz) {
    applyAndLog(*B, name(),
                Util >= P.GoHispeedLoad ? "go_hispeed" : "track_load",
                Desired);
    LastRaise = Now;
  } else if (DesiredHz < CurrentHz) {
    // Hysteresis: hold the raised speed for min_sample_time, then step
    // down one ladder level per tick (the real governor's target-load
    // churn re-evaluates every timer window, producing this gradual
    // descent rather than a cliff).
    if (Now - LastRaise >= P.MinSampleTime) {
      auto It = std::find(Ladder.begin(), Ladder.end(), Current);
      if (It != Ladder.begin() && It != Ladder.end())
        applyAndLog(*B, name(), "step_down", *(It - 1));
    }
  }
  Timer = B->simulator().schedule(P.Timer, [this] { onTimer(); });
}

double InteractiveGovernor::sampleUtilization() {
  return sampleMaxUtilization(*B, LastBusy, LastSample);
}

//===----------------------------------------------------------------------===//
// EBS (event-based scheduling, Zhu et al. HPCA'15)
//===----------------------------------------------------------------------===//

EbsGovernor::EbsGovernor() : P(Params{}) {}

EbsGovernor::EbsGovernor(Params PIn) : P(PIn) {}

void EbsGovernor::attach(Browser &Browser_) {
  B = &Browser_;
  B->addFrameObserver(this);
  B->chip().setConfig(B->chip().spec().minConfig());
}

void EbsGovernor::detach() {
  IdleDrop.cancel();
  if (B)
    B->removeFrameObserver(this);
  B = nullptr;
  ActiveRoots.clear();
}

std::string EbsGovernor::keyFor(const Element *Target,
                                const std::string &Type) const {
  return formatString("%llu:%s",
                      static_cast<unsigned long long>(
                          Target ? Target->nodeId() : 0),
                      Type.c_str());
}

void EbsGovernor::applyFor(GuessKind Guess) {
  AcmpChip &Chip = B->chip();
  switch (Guess) {
  case GuessKind::Unknown:
    // First occurrence: no measurement yet; EBS plays it safe and runs
    // fast (this is also how it learns the latency).
    applyAndLog(*B, name(), "learn_fast", Chip.spec().maxConfig());
    return;
  case GuessKind::Short:
    // Measured fast -> presumed latency-sensitive -> keep fast.
    if (P.BoostShortToMax)
      applyAndLog(*B, name(), "guess_short", Chip.spec().maxConfig());
    else
      applyAndLog(*B, name(), "guess_short",
                  {CoreKind::Big, Chip.spec().Big.minFreq()});
    return;
  case GuessKind::Medium:
    applyAndLog(*B, name(), "guess_medium",
                {CoreKind::Big, Chip.spec().Big.minFreq()});
    return;
  case GuessKind::Long:
    // Measured slow -> EBS *guesses* the user tolerates it -> go slow.
    // The guess is wrong whenever the latency was long because the
    // event is heavyweight, not because the user is patient.
    applyAndLog(*B, name(), "guess_long",
                {CoreKind::Little, Chip.spec().Little.maxFreq()});
    return;
  }
}

void EbsGovernor::onInputDispatched(uint64_t RootId,
                                    const std::string &Type,
                                    Element *Target) {
  if (!B)
    return;
  IdleDrop.cancel();
  std::string Key = keyFor(Target, Type);
  ActiveRoots[RootId] = Key;
  applyFor(Guesses.count(Key) ? Guesses[Key] : GuessKind::Unknown);
}

void EbsGovernor::onFrameReady(const FrameRecord &Frame) {
  if (!B)
    return;
  // Learn from every root this frame belongs to; the event's response
  // frame also retires it from the active set (EBS thinks in events,
  // not in animation closures — one of the gaps the paper points out).
  for (const MsgLatency &L : Frame.Latencies) {
    auto It = ActiveRoots.find(L.Msg.RootId);
    if (It == ActiveRoots.end())
      continue;
    GuessKind Guess = GuessKind::Medium;
    if (L.Latency < P.ShortLatencyThreshold)
      Guess = GuessKind::Short;
    else if (L.Latency > P.LongLatencyThreshold)
      Guess = GuessKind::Long;
    Guesses[It->second] = Guess;
    ActiveRoots.erase(It);
  }
  if (ActiveRoots.empty() && !IdleDrop.isActive())
    IdleDrop = B->simulator().schedule(P.IdleHold, [this] {
      if (B && ActiveRoots.empty())
        applyAndLog(*B, name(), "idle_drop",
                    B->chip().spec().minConfig());
    });
}

void EbsGovernor::onEventQuiescent(uint64_t RootId) {
  if (!B)
    return;
  ActiveRoots.erase(RootId);
}

//===----------------------------------------------------------------------===//
// Ondemand
//===----------------------------------------------------------------------===//

OndemandGovernor::OndemandGovernor() : P(Params{}) {}

OndemandGovernor::OndemandGovernor(Params PIn) : P(PIn) {}

void OndemandGovernor::attach(Browser &Browser_) {
  B = &Browser_;
  Ladder = buildConfigLadder(B->chip());
  for (Duration &Busy : LastBusy)
    Busy = Duration::zero();
  LastSample = B->simulator().now();
  B->chip().setConfig(Ladder.front());
  Timer = B->simulator().schedule(P.Timer, [this] { onTimer(); });
}

void OndemandGovernor::detach() {
  Timer.cancel();
  B = nullptr;
}

void OndemandGovernor::onTimer() {
  assert(B && "timer fired while detached");
  double Util = sampleMaxUtilization(*B, LastBusy, LastSample);
  AcmpChip &Chip = B->chip();

  if (Util >= P.UpThreshold) {
    applyAndLog(*B, name(), "over_threshold", Ladder.back());
  } else {
    // Scale to the lowest speed that would have kept utilization just
    // under the threshold.
    double NeededHz =
        Chip.effectiveHzFor(Chip.config()) * Util / P.UpThreshold;
    AcmpConfig Desired = Ladder.front();
    for (const AcmpConfig &Config : Ladder) {
      Desired = Config;
      if (Chip.effectiveHzFor(Config) >= NeededHz)
        break;
    }
    applyAndLog(*B, name(), "scale_to_load", Desired);
  }
  Timer = B->simulator().schedule(P.Timer, [this] { onTimer(); });
}
