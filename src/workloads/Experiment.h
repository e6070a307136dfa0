//===- workloads/Experiment.h - Evaluation driver ----------------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiment driver behind every table and figure of Sec. 7: runs
/// one (application, governor, mode) combination through the simulated
/// stack and collects energy, per-event QoS violations, configuration
/// distribution, and switching statistics. Follows the paper's
/// protocol: experiments repeat across three seeds and the median is
/// reported (Sec. 7.1).
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_WORKLOADS_EXPERIMENT_H
#define GREENWEB_WORKLOADS_EXPERIMENT_H

#include "browser/BrowserConfig.h"
#include "faults/FaultInjector.h"
#include "greenweb/Features.h"
#include "greenweb/GreenWebRuntime.h"
#include "workloads/Apps.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace greenweb {

class EnergyMeter;
class Telemetry;
struct RunSample;
class WarmCache;

/// Which half of Table 3 drives the run.
enum class ExperimentMode { Micro, Full };

/// Known governor names accepted by ExperimentConfig.
namespace governors {
inline constexpr const char *Perf = "Perf";
inline constexpr const char *Interactive = "Interactive";
inline constexpr const char *Ondemand = "Ondemand";
inline constexpr const char *Powersave = "Powersave";
inline constexpr const char *Ebs = "EBS";
inline constexpr const char *GreenWebI = "GreenWeb-I";
inline constexpr const char *GreenWebU = "GreenWeb-U";
inline constexpr const char *PredictiveI = "Predictive-I";
inline constexpr const char *PredictiveU = "Predictive-U";
/// The one list of governor names: exactly the names makeGovernor
/// builds. Drivers and plan validation check names against it.
inline constexpr const char *All[] = {Perf,      Interactive, Ondemand,
                                      Powersave, Ebs,         GreenWebI,
                                      GreenWebU, PredictiveI, PredictiveU};
/// True when \p Name is in All.
bool known(std::string_view Name);
/// True for the governors that aim at the usable targets (GreenWeb-U,
/// Predictive-U); every other governor is scored as imperceptible.
bool usable(std::string_view Name);
} // namespace governors

/// One experiment's configuration.
struct ExperimentConfig {
  std::string AppName;
  ExperimentMode Mode = ExperimentMode::Full;
  std::string GovernorName = governors::Perf;
  uint64_t Seed = 1;
  /// Microbenchmark repetitions of the primitive interaction. Repeats
  /// let per-event profiling amortize, as in the paper's runs.
  unsigned MicroRepetitions = 8;
  /// Override GreenWeb runtime parameters (ablations). The scenario
  /// field is still forced to match the governor name.
  std::optional<GreenWebRuntime::Params> RuntimeParams;
  /// Replace the app's manual annotations with AUTOGREEN's output
  /// (ablation: annotation-source comparison).
  bool UseAutoGreenAnnotations = false;
  /// Force every annotation to a QoS type (ablation A3: what breaks
  /// when continuous is treated as single and vice versa).
  std::optional<QosType> ForceQosType;
  /// Scale every annotation's targets (ablation A2: mis-annotation; a
  /// value of 0.05 makes every target 20x tighter).
  double TargetScale = 1.0;
  /// Optional fault plan. When set (and non-empty), the run builds a
  /// FaultInjector over its simulator and arms the plan's windows at
  /// measurement start (chaos evaluation; see docs/ROBUSTNESS.md).
  std::optional<FaultPlan> Faults;
  /// Optional telemetry hub. When set (and enabled), the run's
  /// simulator, chip, governor, and browser all instrument into it, and
  /// the run's headline results are published as experiment.* gauges.
  /// Not owned; must outlive the run.
  Telemetry *Tel = nullptr;
  /// When positive (and Tel is set), DAQ-style periodic energy sampling
  /// is enabled over the measured window at this period (1 ms matches
  /// the paper's 1 kS/s), and a closing sample is taken when results
  /// are collected so the attribution ledger covers the full window.
  Duration MeterSamplePeriod = Duration::zero();
  /// Optional warm-asset cache, the one warm-start input. When set, the
  /// run fetches — building on first use — the shared assets for its
  /// (app, seed) at start, so median sweeps warm every seed, and page
  /// loads restore the shared snapshot instead of parsing:
  /// byte-identical simulated behavior, less host-side setup. Runs that
  /// rewrite the page source (UseAutoGreenAnnotations) still load cold.
  /// Not owned; must outlive the run. Thread-safe across parallel runs.
  WarmCache *WarmPool = nullptr;
  /// Model JSON for the Predictive governors, read per run (through
  /// DecisionTreeModel::loadFile) when Model is unset; one that does not
  /// load leaves the LTM fallback. Ignored for other governors.
  std::string ModelPath;
  /// Pre-parsed model for the Predictive governors; takes precedence
  /// over ModelPath. Not owned; must outlive the run.
  const DecisionTreeModel *Model = nullptr;
  /// Confidence threshold below which the Predictive governors fall
  /// back to the LTM decision path.
  double PredictiveConfidence = 0.6;
  /// When set, a FeatureProbe observer exports one labeled training
  /// row per annotated frame into this vector (fleet training-data
  /// export). Not owned; must outlive the run.
  std::vector<FeatureRow> *FeatureRows = nullptr;
  /// Browser input event rate control (eBrowser-style coalescing).
  EventRateOptions InputRate;
};

/// Per-event measurements.
struct EventMetrics {
  uint64_t RootId = 0;
  std::string Type;
  std::string TargetId;
  bool Annotated = false;
  QosSpec Spec;
  /// Latency of each frame attributed to this event, in order. For
  /// single events this is input-to-display; for continuous events it
  /// is the per-frame production latency (BeginFrame to display), the
  /// quantity the 16.6/33.3 ms smoothness targets constrain.
  std::vector<Duration> FrameLatencies;

  /// QoS violation fraction under a scenario: single events use the
  /// response (first) frame; continuous events average over all
  /// associated frames (Sec. 7.2).
  double violationFraction(UsageScenario Scenario) const;
};

/// One experiment's results.
struct ExperimentResult {
  std::string App;
  std::string Governor;
  ExperimentMode Mode = ExperimentMode::Full;
  uint64_t Seed = 0;

  double TotalJoules = 0.0;
  double BigJoules = 0.0;
  double LittleJoules = 0.0;
  double MeasuredSeconds = 0.0;

  uint64_t InputEvents = 0;
  uint64_t AnnotatedEvents = 0;
  uint64_t Frames = 0;
  /// Input events dropped by the browser's EventRateController (zero
  /// when rate control is off or never triggered).
  uint64_t InputEventsCoalesced = 0;

  /// Aggregate violation percentage (mean over annotated events) under
  /// each scenario's targets. Perf/Interactive are scenario-agnostic
  /// policies but are scored under both targets (Sec. 7.2 note).
  double ViolationPctImperceptible = 0.0;
  double ViolationPctUsable = 0.0;

  /// Time share per ACMP configuration (Fig. 11 raw data).
  std::map<AcmpConfig, Duration> ConfigDistribution;
  uint64_t FreqSwitches = 0;
  uint64_t Migrations = 0;

  /// Table 3's annotation percentage: annotated user inputs over all
  /// events (user inputs + timers + animation-end dispatches).
  double AnnotationPct = 0.0;

  /// GreenWeb runtime counters (zero for baseline governors).
  GreenWebRuntime::Stats RuntimeStats;

  /// Injection counters (all zero without a fault plan).
  FaultStats Faults;

  std::vector<EventMetrics> Events;
  std::vector<std::string> ScriptErrors;

  /// Host-side wall time spent on setup (app generation / page parse /
  /// browser open) across the run, in nanoseconds. Diagnostic only:
  /// machine-dependent, never serialized into artifacts, excluded from
  /// determinism comparisons. Warm-start runs show this shrink.
  uint64_t SetupHostNs = 0;
};

/// Builds the governor \p Config names (with its runtime parameters and
/// model) over \p Registry and \p Meter. Throws std::invalid_argument
/// ("unknown governor '<name>'") for a name outside governors::All.
std::unique_ptr<Governor> makeGovernor(const ExperimentConfig &Config,
                                       AnnotationRegistry &Registry,
                                       const EnergyMeter &Meter);

/// Runs a single experiment.
ExperimentResult runExperiment(const ExperimentConfig &Config);

/// Runs the experiment at each seed and returns the median-energy run,
/// with scalar metrics replaced by per-metric medians (the paper's
/// three-run protocol).
ExperimentResult runExperimentMedian(ExperimentConfig Config,
                                     std::vector<uint64_t> Seeds = {1, 2,
                                                                    3});

/// Publishes \p Result's headline scalars as experiment.* gauges in
/// \p Tel's registry (latest run wins; snapshot per run to keep more).
void publishResultMetrics(const ExperimentResult &Result, Telemetry &Tel);

/// Reduces \p Result to the RunSample a StreamAggregator folds: the
/// violation percentage is scored under the governor's own scenario
/// (governors::usable), and the raw violation / alert counts come from
/// \p Tel's counters when the run was instrumented (zero otherwise).
RunSample makeRunSample(const ExperimentResult &Result,
                        const Telemetry *Tel = nullptr);

} // namespace greenweb

#endif // GREENWEB_WORKLOADS_EXPERIMENT_H
