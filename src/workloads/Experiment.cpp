//===- workloads/Experiment.cpp - Evaluation driver -----------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/Experiment.h"

#include "autogreen/AutoGreen.h"
#include "browser/Browser.h"
#include "greenweb/Governors.h"
#include "greenweb/PredictiveGovernor.h"
#include "hw/EnergyMeter.h"
#include "profiling/Profiler.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "telemetry/StreamAggregator.h"
#include "telemetry/Telemetry.h"
#include "workloads/WorkloadAssets.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <iterator>
#include <stdexcept>

using namespace greenweb;

//===----------------------------------------------------------------------===//
// EventMetrics
//===----------------------------------------------------------------------===//

double EventMetrics::violationFraction(UsageScenario Scenario) const {
  if (FrameLatencies.empty())
    return 0.0;
  Duration Target = activeTarget(Spec, Scenario);
  auto ViolationOf = [Target](Duration L) {
    if (L <= Target)
      return 0.0;
    return (L - Target).secs() / Target.secs();
  };
  if (Spec.Type == QosType::Single)
    return ViolationOf(FrameLatencies.front());
  double Sum = 0.0;
  for (Duration L : FrameLatencies)
    Sum += ViolationOf(L);
  return Sum / double(FrameLatencies.size());
}

//===----------------------------------------------------------------------===//
// Metric collection
//===----------------------------------------------------------------------===//

namespace {

/// Records per-event frame latencies against the annotation registry.
class MetricCollector : public FrameObserver {
public:
  explicit MetricCollector(const AnnotationRegistry &Registry)
      : Registry(Registry) {}

  void arm() { Armed = true; }

  void onInputDispatched(uint64_t RootId, const std::string &Type,
                         Element *Target) override {
    if (!Armed)
      return;
    EventMetrics M;
    M.RootId = RootId;
    M.Type = Type;
    M.TargetId = Target ? Target->id() : std::string();
    std::optional<QosSpec> Spec =
        Target ? Registry.lookup(*Target, Type) : std::nullopt;
    M.Annotated = Spec.has_value();
    if (Spec)
      M.Spec = *Spec;
    Index[RootId] = Events.size();
    Events.push_back(std::move(M));
  }

  void onFrameReady(const FrameRecord &Frame) override {
    if (!Armed)
      return;
    // Attribute the frame once per contributing root, at the root's
    // worst latency in this frame.
    Frame.worstLatencyByRoot(Worst);
    for (const auto &[Root, Latency] : Worst) {
      auto It = Index.find(Root);
      if (It == Index.end())
        continue;
      EventMetrics &M = Events[It->second];
      // Smoothness targets constrain per-frame production latency;
      // responsiveness targets constrain input-to-display latency.
      Duration Effective = M.Spec.Type == QosType::Continuous
                               ? Frame.ReadyTime - Frame.BeginTime
                               : Latency;
      M.FrameLatencies.push_back(Effective);
    }
  }

  std::vector<EventMetrics> Events;

private:
  const AnnotationRegistry &Registry;
  std::map<uint64_t, size_t> Index;
  /// Per-frame buffer of onFrameReady, reused across frames.
  std::vector<RootLatency> Worst;
  bool Armed = false;
};

/// Frame-complexity source implementing the per-app profile (jitter
/// plus occasional surges).
class ComplexitySource {
public:
  ComplexitySource(ComplexityProfile Profile, Rng R)
      : Profile(Profile), R(R) {}

  double operator()(uint64_t /*FrameId*/) {
    double Value = Profile.Base * (1.0 + R.uniform(-Profile.Jitter,
                                                   Profile.Jitter));
    if (SurgeLeft > 0) {
      --SurgeLeft;
      return Value * Profile.SurgeScale;
    }
    if (Profile.SurgeProbability > 0.0 &&
        R.chance(Profile.SurgeProbability)) {
      SurgeLeft = Profile.SurgeFrames;
      return Value * Profile.SurgeScale;
    }
    return Value;
  }

private:
  ComplexityProfile Profile;
  Rng R;
  unsigned SurgeLeft = 0;
};

/// Removes the app's manual GreenWeb rules (lines mentioning :QoS) so
/// AUTOGREEN's generated annotations stand alone. The generated app
/// sources keep one QoS rule per line, which this relies on.
std::string stripManualAnnotations(const std::string &Html) {
  std::string Out;
  for (std::string_view Line : split(Html, '\n')) {
    if (Line.find(":QoS") != std::string_view::npos ||
        Line.find(":qos") != std::string_view::npos)
      continue;
    Out += Line;
    Out += '\n';
  }
  return Out;
}

/// Every annotated (element, event) pair of the loaded page, in document
/// order (which keeps anything drawn per pair deterministic).
std::vector<std::pair<Element *, std::string>>
annotatedKeys(const AnnotationRegistry &Registry, Browser &B) {
  std::vector<std::pair<Element *, std::string>> Keys;
  B.document()->forEachElement([&](Element &E) {
    for (const std::string &Type : E.listenedEventTypes())
      if (Registry.lookup(E, Type))
        Keys.push_back({&E, Type});
    if (Registry.lookup(E, events::Load))
      Keys.push_back({&E, events::Load});
  });
  return Keys;
}

/// Applies annotation-level ablations (type forcing, target scaling)
/// on top of a loaded registry.
void applyAnnotationAblations(const ExperimentConfig &Config,
                              AnnotationRegistry &Registry, Browser &B) {
  if (!Config.ForceQosType && Config.TargetScale == 1.0)
    return;
  for (auto &[E, Type] : annotatedKeys(Registry, B)) {
    QosSpec Spec = *Registry.lookup(*E, Type);
    if (Config.ForceQosType)
      Spec.Type = *Config.ForceQosType;
    if (Config.TargetScale != 1.0)
      Spec.Target = {Spec.Target.Imperceptible * Config.TargetScale,
                     Spec.Target.Usable * Config.TargetScale};
    Registry.annotate(*E, Type, Spec);
  }
}

/// Injected annotation mislabeling (paper Sec. 7.3 taken adversarial):
/// each annotated (element, event) pair is independently corrupted at
/// parse time. Runs after the ablations so the faults perturb whatever
/// annotation set the experiment actually uses.
void applyAnnotationFaults(FaultInjector &F, AnnotationRegistry &Registry,
                           Browser &B) {
  if (!F.plan().hasKind(FaultKind::AnnotationMislabel))
    return;
  for (auto &[E, Type] : annotatedKeys(Registry, B)) {
    FaultInjector::MislabelDecision D = F.annotationMislabel(E->nodeId());
    if (!D.Mislabel)
      continue;
    QosSpec Spec = *Registry.lookup(*E, Type);
    if (D.FlipType)
      Spec.Type = Spec.Type == QosType::Single ? QosType::Continuous
                                               : QosType::Single;
    Spec.Target = {Spec.Target.Imperceptible * D.TargetScale,
                   Spec.Target.Usable * D.TargetScale};
    Registry.annotate(*E, Type, Spec);
  }
}

bool isPredictive(const std::string &Name) {
  return Name == governors::PredictiveI || Name == governors::PredictiveU;
}

/// True for the governors built on GreenWebRuntime.
bool isRuntime(const std::string &Name) {
  return isPredictive(Name) || Name == governors::GreenWebI ||
         Name == governors::GreenWebU;
}

/// Host wall clock for setup-phase attribution (never simulated time).
uint64_t hostNowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// Shared state for one experiment run.
struct Harness {
  /// \p Assets are the pool's shared assets for (Config.AppName,
  /// Config.Seed), or null for a cold run.
  Harness(const ExperimentConfig &Config, const PageAssets *Assets)
      : Config(Config), Chip(Sim), Meter(Chip), Collector(Registry) {
    uint64_t SetupStart = hostNowNs();
    if (Config.Tel)
      Sim.setTelemetry(Config.Tel);
    if (Config.Faults && !Config.Faults->Faults.empty()) {
      Injector.emplace(Sim, *Config.Faults);
      // A throttle window opening mid-run must clamp the chip even if
      // the governor issues no new decision for a while.
      Injector->addWindowListener([this](const FaultSpec &S, bool Began) {
        if (S.Kind == FaultKind::ThermalThrottle && Began)
          Chip.enforceThermalCap();
      });
    }
    // Warm-start eligibility: the run must load the page source
    // verbatim (AutoGreen rewrites it, so those runs stay cold).
    if (Assets && !Config.UseAutoGreenAnnotations && Assets->Snapshot.Proto)
      Warm = Assets;
    if (Warm) {
      App = &Warm->App;
    } else {
      OwnedApp = makeApp(Config.AppName, Config.Seed);
      App = &OwnedApp;
      Html = App->Html;
      if (Config.UseAutoGreenAnnotations) {
        AutoGreenResult Auto = runAutoGreen(Html);
        Html = stripManualAnnotations(Html) + "\n<style>\n" +
               Auto.GeneratedCss + "</style>\n";
      }
    }
    if (isPredictive(Config.GovernorName) && !Config.Model &&
        !Config.ModelPath.empty() &&
        DecisionTreeModel::loadFile(Config.ModelPath, LoadedModel))
      this->Config.Model = &LoadedModel;
    Gov = makeGovernor(this->Config, Registry, Meter);
    SetupHostNs += hostNowNs() - SetupStart;
  }

  /// Starts the measured window: zeroes the meter and chip stats, and
  /// (with telemetry) begins periodic energy sampling for attribution.
  void armMeasurement() {
    Meter.reset();
    Chip.resetStats();
    if (Config.Tel && Config.MeterSamplePeriod > Duration::zero())
      Meter.enableSampling(Config.MeterSamplePeriod);
    if (Injector)
      Injector->arm(Sim.now());
  }

  /// Creates a fresh browser, loads the page (restoring the shared
  /// snapshot on warm-start runs), and attaches everything.
  void openBrowser() {
    uint64_t SetupStart = hostNowNs();
    BrowserOptions Opts;
    Opts.RngSeed = Config.Seed;
    Opts.InputRate = Config.InputRate;
    B = std::make_unique<Browser>(Sim, Chip, Opts);
    auto Complexity = std::make_shared<ComplexitySource>(
        App->Complexity, Rng(Config.Seed).fork(0xC0));
    B->FrameComplexityFn = [Complexity](uint64_t FrameId) {
      return (*Complexity)(FrameId);
    };
    B->OnPageParsed = [this] {
      Registry.clear();
      Registry.loadFromPage(*B);
      applyAnnotationAblations(Config, Registry, *B);
      if (Injector)
        applyAnnotationFaults(*Injector, Registry, *B);
    };
    B->addFrameObserver(&Collector);
    if (Config.FeatureRows) {
      // Training-data export: label targets follow the governor's
      // scenario (usable for the -U governors, imperceptible else).
      UsageScenario S = governors::usable(Config.GovernorName)
                            ? UsageScenario::Usable
                            : UsageScenario::Imperceptible;
      Probe.emplace(Registry, Chip, S, *Config.FeatureRows);
      B->addFrameObserver(&*Probe);
    }
    Gov->attach(*B);
    if (Warm)
      B->loadPage(Warm->Snapshot);
    else
      B->loadPage(Html);
    SetupHostNs += hostNowNs() - SetupStart;
  }

  void closeBrowser() {
    Gov->detach();
    B.reset();
  }

  ExperimentConfig Config;
  /// The model read from Config.ModelPath (when Config.Model was unset).
  DecisionTreeModel LoadedModel;
  /// Validated warm assets (null on cold runs).
  const PageAssets *Warm = nullptr;
  /// App definition built by this run (cold path only).
  AppDefinition OwnedApp;
  /// The run's app definition: &OwnedApp, or the shared warm copy.
  const AppDefinition *App = nullptr;
  std::string Html;
  /// Host-side setup wall time (diagnostic; see ExperimentResult).
  uint64_t SetupHostNs = 0;
  Simulator Sim;
  AcmpChip Chip;
  EnergyMeter Meter;
  AnnotationRegistry Registry;
  MetricCollector Collector;
  /// Training-data exporter (engaged when Config.FeatureRows is set).
  std::optional<FeatureProbe> Probe;
  std::unique_ptr<Governor> Gov;
  /// Declared after everything it perturbs; its destructor detaches
  /// from Sim before Sim is destroyed.
  std::optional<FaultInjector> Injector;
  std::unique_ptr<Browser> B;
};

} // namespace

bool greenweb::governors::known(std::string_view Name) {
  return std::find(std::begin(All), std::end(All), Name) != std::end(All);
}

bool greenweb::governors::usable(std::string_view Name) {
  return Name == GreenWebU || Name == PredictiveU;
}

std::unique_ptr<Governor>
greenweb::makeGovernor(const ExperimentConfig &Config,
                       AnnotationRegistry &Registry,
                       const EnergyMeter &Meter) {
  const std::string &Name = Config.GovernorName;
  if (!governors::known(Name))
    throw std::invalid_argument("unknown governor '" + Name + "'");
  if (Name == governors::Perf)
    return std::make_unique<PerfGovernor>();
  if (Name == governors::Powersave)
    return std::make_unique<PowersaveGovernor>();
  if (Name == governors::Interactive)
    return std::make_unique<InteractiveGovernor>();
  if (Name == governors::Ondemand)
    return std::make_unique<OndemandGovernor>();
  if (Name == governors::Ebs)
    return std::make_unique<EbsGovernor>();
  // The runtime family: GreenWeb-I/U and Predictive-I/U.
  GreenWebRuntime::Params P =
      Config.RuntimeParams.value_or(GreenWebRuntime::Params{});
  P.Scenario = governors::usable(Name) ? UsageScenario::Usable
                                       : UsageScenario::Imperceptible;
  std::unique_ptr<GreenWebRuntime> RT;
  if (isPredictive(Name)) {
    PredictiveGovernor::Options O;
    O.Model = Config.Model;
    O.ConfidenceThreshold = Config.PredictiveConfidence;
    RT = std::make_unique<PredictiveGovernor>(Registry, P, O);
  } else {
    RT = std::make_unique<GreenWebRuntime>(Registry, P);
  }
  RT->setEnergyMeter(&Meter);
  return RT;
}

//===----------------------------------------------------------------------===//
// runExperiment
//===----------------------------------------------------------------------===//

static ExperimentResult collectResults(Harness &H, TimePoint ArmTime) {
  // Close the attribution ledger before reading totals: the tail since
  // the last periodic tick must reach the log for per-annotation
  // energies to reconcile against the meter.
  if (H.Config.Tel && H.Config.MeterSamplePeriod > Duration::zero())
    H.Meter.recordSampleNow();

  ExperimentResult R;
  R.App = H.Config.AppName;
  R.Governor = H.Config.GovernorName;
  R.Mode = H.Config.Mode;
  R.Seed = H.Config.Seed;

  R.SetupHostNs = H.SetupHostNs;
  R.TotalJoules = H.Meter.totalJoules();
  R.BigJoules = H.Meter.bigJoules();
  R.LittleJoules = H.Meter.littleJoules();
  R.MeasuredSeconds = (H.Sim.now() - ArmTime).secs();

  R.Events = H.Collector.Events;
  R.InputEvents = R.Events.size();
  std::vector<double> ViolationsI, ViolationsU;
  for (const EventMetrics &E : R.Events) {
    if (!E.Annotated)
      continue;
    ++R.AnnotatedEvents;
    ViolationsI.push_back(
        E.violationFraction(UsageScenario::Imperceptible));
    ViolationsU.push_back(E.violationFraction(UsageScenario::Usable));
  }
  R.ViolationPctImperceptible = mean(ViolationsI) * 100.0;
  R.ViolationPctUsable = mean(ViolationsU) * 100.0;

  R.ConfigDistribution = H.Chip.configTimeDistribution();
  R.FreqSwitches = H.Chip.freqSwitches();
  R.Migrations = H.Chip.migrations();

  if (H.B) {
    R.Frames = H.B->frameTracker().frames().size();
    uint64_t Synthetic = H.B->TimerTasksRun + H.B->AnimationEndEvents;
    uint64_t AllEvents = R.InputEvents + Synthetic;
    R.AnnotationPct = AllEvents == 0 ? 0.0
                                     : 100.0 * double(R.AnnotatedEvents) /
                                           double(AllEvents);
    R.ScriptErrors = H.B->ScriptErrors;
  }

  if (H.Injector)
    R.Faults = H.Injector->stats();

  if (H.B)
    R.InputEventsCoalesced = H.B->rateController().suppressedCount();

  if (isRuntime(H.Config.GovernorName))
    R.RuntimeStats = static_cast<const GreenWebRuntime &>(*H.Gov).stats();

  if (Telemetry *T = H.Sim.telemetry(); T && T->enabled()) {
    // Close spans still open at session end (quiescence never reached,
    // in-flight frames) so offline analysis sees a complete DAG.
    T->flushSpans();
    publishResultMetrics(R, *T);
  }
  return R;
}

void greenweb::publishResultMetrics(const ExperimentResult &Result,
                                    Telemetry &Tel) {
  MetricsRegistry &M = Tel.metrics();
  M.gauge("experiment.total_joules").set(Result.TotalJoules);
  M.gauge("experiment.big_joules").set(Result.BigJoules);
  M.gauge("experiment.little_joules").set(Result.LittleJoules);
  M.gauge("experiment.measured_seconds").set(Result.MeasuredSeconds);
  M.gauge("experiment.input_events").set(double(Result.InputEvents));
  M.gauge("experiment.annotated_events")
      .set(double(Result.AnnotatedEvents));
  M.gauge("experiment.frames").set(double(Result.Frames));
  M.gauge("experiment.violation_pct_imperceptible")
      .set(Result.ViolationPctImperceptible);
  M.gauge("experiment.violation_pct_usable")
      .set(Result.ViolationPctUsable);
  M.gauge("experiment.freq_switches").set(double(Result.FreqSwitches));
  M.gauge("experiment.migrations").set(double(Result.Migrations));
  M.gauge("experiment.annotation_pct").set(Result.AnnotationPct);
}

RunSample greenweb::makeRunSample(const ExperimentResult &Result,
                                  const Telemetry *Tel) {
  RunSample S;
  S.App = Result.App;
  S.Governor = Result.Governor;
  S.Joules = Result.TotalJoules;
  S.ViolationPct = governors::usable(Result.Governor)
                       ? Result.ViolationPctUsable
                       : Result.ViolationPctImperceptible;
  S.Frames = Result.Frames;
  for (const EventMetrics &E : Result.Events)
    for (Duration L : E.FrameLatencies)
      S.FrameLatenciesMs.push_back(L.millis());
  if (Tel) {
    const MetricsRegistry &M = Tel->metrics();
    if (const Counter *C = M.findCounter("qos.violations"))
      S.QosViolations = C->value();
    if (const Counter *C = M.findCounter("telemetry.alerts"))
      S.Alerts = C->value();
  }
  return S;
}

static ExperimentResult runFullExperiment(Harness &H) {
  H.Collector.arm();
  H.openBrowser();
  TimePoint Origin = H.Sim.now();
  H.armMeasurement();

  for (const TraceEvent &Event : H.App->Full.Events) {
    H.Sim.scheduleAt(Origin + Event.At, [&H, Event] {
      H.B->dispatchInput(Event.Type, Event.TargetId);
    });
  }
  H.Sim.runUntil(Origin + H.App->Full.SessionLength +
                 Duration::seconds(2));
  ExperimentResult R = collectResults(H, Origin);
  H.closeBrowser();
  return R;
}

static ExperimentResult runMicroExperiment(Harness &H) {
  if (H.App->MicroInteraction == InteractionKind::Loading) {
    // The interaction *is* the load: one fresh browser per repetition,
    // with the chip, meter, runtime, and its calibrated models shared
    // across repetitions.
    H.Collector.arm();
    TimePoint ArmTime = H.Sim.now();
    H.armMeasurement();
    for (unsigned Rep = 0; Rep < H.Config.MicroRepetitions; ++Rep) {
      if (H.B)
        H.closeBrowser();
      H.openBrowser();
      H.Sim.runUntil(H.Sim.now() + H.App->MicroPeriod);
    }
    ExperimentResult R = collectResults(H, ArmTime);
    H.closeBrowser();
    return R;
  }

  // Tapping / moving micro: settle the load first, then repeat the
  // primitive interaction; metrics cover only the interaction phase.
  H.openBrowser();
  H.Sim.runUntil(H.Sim.now() + Duration::seconds(2));
  H.Collector.arm();
  TimePoint ArmTime = H.Sim.now();
  H.armMeasurement();
  H.B->frameTracker().clearFrames();

  for (unsigned Rep = 0; Rep < H.Config.MicroRepetitions; ++Rep) {
    TimePoint RepStart = ArmTime + H.App->MicroPeriod * int64_t(Rep);
    for (const TraceEvent &Event : H.App->Micro.Events) {
      H.Sim.scheduleAt(RepStart + Event.At, [&H, Event] {
        H.B->dispatchInput(Event.Type, Event.TargetId);
      });
    }
  }
  H.Sim.runUntil(ArmTime +
                 H.App->MicroPeriod * int64_t(H.Config.MicroRepetitions) +
                 Duration::seconds(1));
  ExperimentResult R = collectResults(H, ArmTime);
  H.closeBrowser();
  return R;
}

ExperimentResult greenweb::runExperiment(const ExperimentConfig &Config) {
  GW_PROF_SCOPE("workloads.experiment");
  const PageAssets *Assets = nullptr;
  uint64_t PoolNs = 0;
  if (Config.WarmPool) {
    // The fetch may build the assets (first run for this key); that is
    // setup work and must be attributed as such.
    uint64_t PoolStart = hostNowNs();
    Assets = &Config.WarmPool->get(Config.AppName, Config.Seed);
    PoolNs = hostNowNs() - PoolStart;
  }
  Harness H(Config, Assets);
  H.SetupHostNs += PoolNs;
  if (Config.Mode == ExperimentMode::Full)
    return runFullExperiment(H);
  return runMicroExperiment(H);
}

ExperimentResult
greenweb::runExperimentMedian(ExperimentConfig Config,
                              std::vector<uint64_t> Seeds) {
  assert(!Seeds.empty() && "need at least one seed");
  std::vector<ExperimentResult> Runs;
  for (uint64_t Seed : Seeds) {
    Config.Seed = Seed;
    Runs.push_back(runExperiment(Config));
  }
  // Pick the median-energy run as the representative, then overwrite
  // scalar metrics with per-metric medians (Sec. 7.1 protocol).
  std::vector<ExperimentResult *> ByEnergy;
  for (ExperimentResult &R : Runs)
    ByEnergy.push_back(&R);
  std::sort(ByEnergy.begin(), ByEnergy.end(),
            [](const ExperimentResult *A, const ExperimentResult *B) {
              return A->TotalJoules < B->TotalJoules;
            });
  ExperimentResult Result = *ByEnergy[ByEnergy.size() / 2];

  auto MedianOf = [&Runs](double ExperimentResult::*Field) {
    std::vector<double> Values;
    for (const ExperimentResult &R : Runs)
      Values.push_back(R.*Field);
    return median(Values);
  };
  Result.TotalJoules = MedianOf(&ExperimentResult::TotalJoules);
  Result.BigJoules = MedianOf(&ExperimentResult::BigJoules);
  Result.LittleJoules = MedianOf(&ExperimentResult::LittleJoules);
  Result.ViolationPctImperceptible =
      MedianOf(&ExperimentResult::ViolationPctImperceptible);
  Result.ViolationPctUsable = MedianOf(&ExperimentResult::ViolationPctUsable);
  // Setup attribution covers the whole protocol, not just the median run.
  Result.SetupHostNs = 0;
  for (const ExperimentResult &R : Runs)
    Result.SetupHostNs += R.SetupHostNs;
  return Result;
}
