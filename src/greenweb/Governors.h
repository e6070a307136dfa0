//===- greenweb/Governors.h - Baseline CPU governors -------------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The baseline CPU governors the paper evaluates against (Sec. 7.1):
///
///  * Perf        - always the peak configuration (big cluster at max
///                  frequency); best QoS, highest energy.
///  * Interactive - re-implementation of Android's cpufreq_interactive
///                  policy: jump to the highest speed when load appears
///                  after idle, then track utilization with hysteresis.
///  * Ondemand / Powersave - classic governors, used by ablations.
///
/// On the Exynos 5410's cluster-migration design the governor ladder
/// spans both clusters: the low "virtual frequencies" map to A7 levels
/// and the high ones to A15 levels, which is how the real device
/// switched clusters under cpufreq.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_GREENWEB_GOVERNORS_H
#define GREENWEB_GREENWEB_GOVERNORS_H

#include "browser/FrameTracker.h"
#include "hw/AcmpChip.h"
#include "sim/Simulator.h"

#include <string>
#include <vector>

namespace greenweb {

class Browser;

/// Interface every CPU scheduling policy implements.
class Governor {
public:
  virtual ~Governor();

  virtual std::string name() const = 0;

  /// Starts governing \p B's chip. Called once, after the browser is
  /// constructed and before the page loads.
  virtual void attach(Browser &B) = 0;

  /// Stops governing (cancels timers). Safe to call when not attached.
  virtual void detach();
};

/// Peak-performance policy: pins the big cluster at maximum frequency.
class PerfGovernor : public Governor {
public:
  std::string name() const override { return "Perf"; }
  void attach(Browser &B) override;
};

/// Minimum-power policy: pins the little cluster at minimum frequency.
class PowersaveGovernor : public Governor {
public:
  std::string name() const override { return "Powersave"; }
  void attach(Browser &B) override;
};

/// Android `interactive` governor model. Implements FrameObserver for
/// the input-booster behavior Android pairs with this governor: any
/// touch input pulses the CPU to hispeed immediately, which is a large
/// part of why Interactive tracks Perf so closely under interactive
/// load (Sec. 7.3's "Interactive consumes energy close to Perf").
class InteractiveGovernor : public Governor, public FrameObserver {
public:
  struct Params {
    /// Utilization sampling period.
    Duration Timer = Duration::milliseconds(20);
    /// Load at (or above) which the governor jumps to hispeed (Android
    /// default go_hispeed_load=99 applies to the *idle-exit* burst; the
    /// sustained-load path uses target loads; this model folds both
    /// into one jump threshold).
    double GoHispeedLoad = 0.60;
    /// Proportional-control target load for frequency selection.
    double TargetLoad = 0.80;
    /// Minimum time at a speed before the governor may lower it
    /// (min_sample_time; device vendors commonly shipped hundreds of
    /// milliseconds to keep interaction snappy).
    Duration MinSampleTime = Duration::milliseconds(500);
    /// Touch-boost: jump to hispeed on any user input (Android's input
    /// booster). Disable for the pre-boost governor variant.
    bool TouchBoost = true;
  };

  InteractiveGovernor();
  explicit InteractiveGovernor(Params P);

  std::string name() const override { return "Interactive"; }
  void attach(Browser &B) override;
  void detach() override;

  /// Input booster hook.
  void onInputDispatched(uint64_t RootId, const std::string &Type,
                         Element *Target) override;
  void onFrameReady(const FrameRecord &Frame) override;

private:
  void onTimer();
  double sampleUtilization();

  Params P;
  Browser *B = nullptr;
  std::vector<AcmpConfig> Ladder;
  EventHandle Timer;
  Duration LastBusy[3];
  TimePoint LastSample;
  TimePoint LastRaise;
};

/// Classic ondemand governor: jump to max above the up-threshold, scale
/// down proportionally otherwise.
class OndemandGovernor : public Governor {
public:
  struct Params {
    Duration Timer = Duration::milliseconds(100);
    double UpThreshold = 0.80;
  };

  OndemandGovernor();
  explicit OndemandGovernor(Params P);

  std::string name() const override { return "Ondemand"; }
  void attach(Browser &B) override;
  void detach() override;

private:
  void onTimer();

  Params P;
  Browser *B = nullptr;
  std::vector<AcmpConfig> Ladder;
  EventHandle Timer;
  Duration LastBusy[3];
  TimePoint LastSample;
};

/// Event-based scheduling (EBS) from Zhu et al. HPCA'15, the paper's
/// closest related runtime (Sec. 9). EBS has no QoS annotations: it
/// *measures* each event's latency and uses it as a proxy for user
/// expectations — "if an event takes a long time to execute, EBS
/// guesses that users could naturally tolerate a long latency and
/// reduces CPU frequency". The paper's criticism is that measured latency
/// is an artifact of the device's speed, not of the user's expectation.
/// Section A7 of bench_design_suite compares EBS with GreenWeb; the gap
/// shows where events outlive their first frame (Goo.ne.jp's animations),
/// not on MSN's taps, which EBS measures fast at peak and keeps there.
class EbsGovernor : public Governor, public FrameObserver {
public:
  struct Params {
    /// Events whose last observed latency was below this run fast.
    Duration ShortLatencyThreshold = Duration::milliseconds(50);
    /// ...and events above this are presumed tolerant and run slow.
    Duration LongLatencyThreshold = Duration::milliseconds(300);
    /// Config used for presumed-latency-sensitive (short) events.
    bool BoostShortToMax = true;
    /// Idle-drop delay after the last event's response frame.
    Duration IdleHold = Duration::milliseconds(150);
  };

  EbsGovernor();
  explicit EbsGovernor(Params P);

  std::string name() const override { return "EBS"; }
  void attach(Browser &B) override;
  void detach() override;

  void onInputDispatched(uint64_t RootId, const std::string &Type,
                         Element *Target) override;
  void onFrameReady(const FrameRecord &Frame) override;
  void onEventQuiescent(uint64_t RootId) override;

private:
  /// Per-(element, event) class guessed from measured latencies.
  enum class GuessKind { Unknown, Short, Medium, Long };

  std::string keyFor(const Element *Target, const std::string &Type) const;
  void applyFor(GuessKind Guess);

  Params P;
  Browser *B = nullptr;
  std::map<std::string, GuessKind> Guesses;
  std::map<uint64_t, std::string> ActiveRoots;
  EventHandle IdleDrop;
};

/// Builds the cluster-migration frequency ladder: all configurations
/// ordered by ascending effective speed (A7 levels then A15 levels).
std::vector<AcmpConfig> buildConfigLadder(const AcmpChip &Chip);

} // namespace greenweb

#endif // GREENWEB_GREENWEB_GOVERNORS_H
