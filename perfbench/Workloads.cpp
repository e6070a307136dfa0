//===- perfbench/Workloads.cpp - The benchmark's workloads ----------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "browser/Browser.h"
#include "browser/TraceExport.h"
#include "greenweb/AnnotationRegistry.h"
#include "greenweb/Features.h"
#include "greenweb/GreenWebRuntime.h"
#include "hw/EnergyMeter.h"
#include "support/Json.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "telemetry/FleetReport.h"
#include "telemetry/Telemetry.h"
#include "workloads/Experiment.h"
#include "workloads/FleetPlan.h"
#include "workloads/FleetRunner.h"
#include "workloads/TelemetryArtifacts.h"
#include "workloads/WorkloadAssets.h"

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

using namespace greenweb;
using namespace greenweb::perfbench;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    throw std::runtime_error("cannot read " + Path);
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

uint64_t counterValue(const Telemetry &Tel, std::string_view Name) {
  const Counter *C = Tel.metrics().findCounter(Name);
  return C ? C->value() : 0;
}

/// Median host ms over \p Reps calls of \p Fn.
double medianMs(unsigned Reps, const std::function<void()> &Fn) {
  std::vector<double> Ms;
  for (unsigned I = 0; I < Reps; ++I) {
    uint64_t T = nowNs();
    Fn();
    Ms.push_back(msSince(T));
  }
  return median(Ms);
}

std::string label(const ExperimentConfig &C) {
  return formatString("%s|%s|%s|s%llu", C.AppName.c_str(),
                      C.GovernorName.c_str(),
                      C.Mode == ExperimentMode::Micro ? "micro" : "full",
                      static_cast<unsigned long long>(C.Seed));
}

/// Simulation counters a workload's traced run reports.
struct Counts {
  double Events = 0, Cancelled = 0, Frames = 0, Decisions = 0;
  double Switches = 0, Migrations = 0, Records = 0, SetupMs = 0;
  double ExportMetricsMs = 0;
};

Counts hubCounts(const Telemetry &Hub) {
  Counts C;
  C.Events = double(counterValue(Hub, "sim.events_fired"));
  C.Cancelled = double(counterValue(Hub, "sim.events_cancelled"));
  C.Frames = double(counterValue(Hub, "browser.frames"));
  C.Decisions = double(counterValue(Hub, "governor.decisions"));
  C.Records = double(Hub.log().size());
  C.ExportMetricsMs =
      medianMs(5, [&Hub] { (void)Hub.metrics().snapshotJson(); });
  return C;
}

/// \p HostMs is the host time the counted events took, for
/// sim.host_ns_per_event.
void addCounts(const Counts &C, double HostMs, MetricSet &M) {
  M.add("sim.events", C.Events, "count");
  M.add("sim.events_cancelled", C.Cancelled, "count");
  M.add("sim.host_ns_per_event", HostMs * 1e6 / std::max(1.0, C.Events),
        "ns");
  M.add("browser.frames", C.Frames, "count");
  M.add("governor.decisions", C.Decisions, "count");
  M.add("hw.freq_switches", C.Switches, "count");
  M.add("hw.migrations", C.Migrations, "count");
  M.add("telemetry.records", C.Records, "count");
  M.add("telemetry.export_metrics_ms", C.ExportMetricsMs, "ms");
  M.add("workloads.setup_ms", C.SetupMs, "ms");
}

/// Runs \p Configs serially with a metrics-only hub attached, to read
/// the counters of the same simulations a pass runs. Digests are
/// checked against \p Book when given (same operation indices).
Counts countRuns(const std::vector<ExperimentConfig> &Configs,
                 WarmCache *Warm, Outcome &Out, DigestBook *Book) {
  Telemetry Hub;
  Hub.setLogCapacity(0);
  double Switches = 0, Migrations = 0, SetupNs = 0;
  for (size_t I = 0; I < Configs.size(); ++I) {
    ExperimentConfig C = Configs[I];
    C.Tel = &Hub;
    C.WarmPool = Warm;
    ++Out.Attempted;
    try {
      ExperimentResult R = runExperiment(C);
      Switches += double(R.FreqSwitches);
      Migrations += double(R.Migrations);
      SetupNs += double(R.SetupHostNs);
      if (Book)
        Book->check(I, resultDigest(R), Out, label(C) + " (counted)");
    } catch (const std::exception &E) {
      Out.fail(label(C) + ": " + E.what());
    }
  }
  Counts Result = hubCounts(Hub);
  Result.Switches = Switches;
  Result.Migrations = Migrations;
  Result.SetupMs = SetupNs / 1e6;
  return Result;
}

//===----------------------------------------------------------------------===//
// paper_suite
//===----------------------------------------------------------------------===//

class PaperSuite final : public Workload {
public:
  explicit PaperSuite(const WorkloadOptions &O) : Seed(O.Seed) {}

  const char *passMeaning() const override {
    return "one 288-run suite (suite_wall_s)";
  }
  const char *opMeaning() const override {
    return "one runExperiment call (run_ms)";
  }

  void setup() override {
    Configs.clear();
    for (const std::string &App : allAppNames())
      for (const char *Gov : {governors::Perf, governors::Interactive,
                              governors::GreenWebI, governors::GreenWebU})
        for (ExperimentMode Mode :
             {ExperimentMode::Micro, ExperimentMode::Full})
          for (uint64_t S = Seed; S < Seed + 3; ++S) {
            ExperimentConfig C;
            C.AppName = App;
            C.GovernorName = Gov;
            C.Mode = Mode;
            C.Seed = S;
            Configs.push_back(std::move(C));
          }
    // Warm-up: the suite's runs at seed S, a third of a pass.
    for (const ExperimentConfig &C : Configs)
      if (C.Seed == Seed)
        runExperiment(C);
  }

  PassTiming pass(Outcome &Out) override {
    PassTiming P;
    uint64_t Start = nowNs();
    for (size_t I = 0; I < Configs.size(); ++I) {
      ++Out.Attempted;
      try {
        uint64_t T = nowNs();
        ExperimentResult R = runExperiment(Configs[I]);
        P.OpMs.push_back(msSince(T));
        Digests.check(I, resultDigest(R), Out, label(Configs[I]));
      } catch (const std::exception &E) {
        Out.fail(label(Configs[I]) + ": " + E.what());
      }
    }
    P.WallMs = msSince(Start);
    return P;
  }

  std::vector<Page> pages() const override {
    std::vector<Page> Pages;
    for (const std::string &App : allAppNames())
      for (uint64_t S = Seed; S < Seed + 3; ++S)
        Pages.push_back({App, S});
    return Pages;
  }

  void addTraced(const TraceContext &Ctx, MetricSet &M,
                 Outcome &Out) override {
    addCounts(countRuns(Configs, nullptr, Out, &Digests), Ctx.PassMs, M);
  }

private:
  uint64_t Seed;
  std::vector<ExperimentConfig> Configs;
};

//===----------------------------------------------------------------------===//
// fleet
//===----------------------------------------------------------------------===//

class Fleet final : public Workload {
public:
  explicit Fleet(const WorkloadOptions &O)
      : Seed(O.Seed), Jobs(O.Jobs), Dir(O.ScratchDir) {}

  const char *passMeaning() const override {
    return "one runFleet call over 675 items at J jobs (675 / "
           "fleet_items_per_s)";
  }
  const char *opMeaning() const override { return "one runFleet call"; }

  void setup() override {
    std::filesystem::create_directories(Dir);
    std::string Text = readFile(ModelPath);
    std::string Error;
    DecisionTreeModel Model;
    if (!DecisionTreeModel::parse(Text, Model, &Error))
      throw std::runtime_error(std::string("model ") + ModelPath + ": " +
                               Error);
    Plan = plan({"BBC", "Google", "Todo", "CamanJS", "Amazon"},
                {Seed, Seed + 1, Seed + 2}, {"none", "thermal", "chaos"}, 3);
    // Warm-up: the plan without replicas (a third of a pass), no
    // checkpoint.
    FleetRunSummary Warm;
    FleetRunOptions O;
    O.Jobs = Jobs;
    FleetPlan WarmPlan = Plan;
    WarmPlan.Replicas = 1;
    if (!runFleet(WarmPlan, O, Warm, &Error))
      throw std::runtime_error("fleet warm-up: " + Error);
  }

  PassTiming pass(Outcome &Out) override {
    double Ms = runOnce(Jobs, Dir + "/fleet.ckpt", Out);
    return {Ms, {Ms}};
  }

  std::vector<Page> pages() const override {
    std::vector<Page> Pages;
    for (const std::string &App : Plan.Apps)
      for (uint64_t S : Plan.Seeds)
        Pages.push_back({App, S});
    return Pages;
  }

  unsigned threads() const override { return Jobs; }

  void addEndToEnd(double PassMs, MetricSet &M) override {
    M.add("fleet_items_per_s", double(Plan.items()) / (PassMs / 1e3),
          "items/s");
  }

  void addTraced(const TraceContext &Ctx, MetricSet &M,
                 Outcome &Out) override {
    // The digest check fails this run unless its report is byte-identical
    // to the J-job passes'.
    double SerialMs = runOnce(1, Dir + "/fleet-j1.ckpt", Out);
    M.add("workloads.parallel_speedup", SerialMs / Ctx.PassMs, "x");
    std::vector<double> NoCheckpoint;
    for (unsigned I = 0; I < (Ctx.Smoke ? 1u : 3u); ++I)
      NoCheckpoint.push_back(runOnce(Jobs, "", Out));
    M.add("workloads.checkpoint_ms", Ctx.PassMs - median(NoCheckpoint),
          "ms");
    M.add("workloads.fleet_report_ms",
          medianMs(20, [this] { (void)LastSummary.Report.toJson(); }), "ms");

    std::vector<ExperimentConfig> Configs;
    for (uint64_t I = 0; I < Plan.items(); ++I)
      Configs.push_back(Plan.config(Plan.item(I)));
    WarmCache Warm;
    addCounts(countRuns(Configs, &Warm, Out, nullptr), Ctx.PassMs, M);
  }

private:
  FleetPlan plan(std::vector<std::string> Apps, std::vector<uint64_t> Seeds,
                 std::vector<std::string> Scenarios, uint32_t Replicas) const {
    FleetPlan P;
    P.Name = "perfbench";
    P.Mode = ExperimentMode::Micro;
    P.Apps = std::move(Apps);
    P.Governors = {governors::Perf, governors::Interactive,
                   governors::GreenWebI, governors::GreenWebU,
                   governors::PredictiveI};
    P.Seeds = std::move(Seeds);
    P.Scenarios = std::move(Scenarios);
    P.Replicas = Replicas;
    P.MicroRepetitions = 2;
    P.BaselineGovernor = governors::Perf;
    P.ModelPath = ModelPath;
    FleetPlan Checked;
    std::string Error;
    if (!FleetPlan::parse(P.toJson(), Checked, &Error))
      throw std::runtime_error("fleet plan: " + Error);
    return P;
  }

  /// One runFleet call over the whole plan; returns its host ms and
  /// keeps its report. Reports of runs without a checkpoint carry no
  /// black-box refs, so they are digest-checked as an operation of
  /// their own.
  double runOnce(unsigned RunJobs, const std::string &Checkpoint,
                 Outcome &Out) {
    FleetRunOptions O;
    O.Jobs = RunJobs;
    O.BatchSize = 64;
    O.CheckpointPath = Checkpoint;
    std::string Error;
    ++Out.Attempted;
    uint64_t T = nowNs();
    bool Ok = runFleet(Plan, O, LastSummary, &Error);
    double Ms = msSince(T);
    if (!Ok || !LastSummary.Complete ||
        LastSummary.ItemsRun != Plan.items()) {
      Out.fail("runFleet: " + (Error.empty() ? "incomplete" : Error));
      LastReport.clear();
      return Ms;
    }
    LastReport = LastSummary.Report.toJson();
    Digests.check(Checkpoint.empty() ? 1 : 0, fleetHash(LastReport), Out,
                  formatString("runFleet at %u jobs%s", RunJobs,
                               Checkpoint.empty() ? ", no checkpoint" : ""));
    return Ms;
  }

  /// The committed learned-governor model, relative to the repository
  /// root.
  static constexpr const char *ModelPath = "examples/models/predictive.json";

  uint64_t Seed;
  unsigned Jobs;
  std::string Dir;
  FleetPlan Plan;
  FleetRunSummary LastSummary;
  std::string LastReport;
};

//===----------------------------------------------------------------------===//
// instrumented
//===----------------------------------------------------------------------===//

/// What one session reports.
struct Session {
  uint64_t Digest = 0;
  uint64_t Events = 0;
  double TotalMs = 0.0;
  double RunMs = 0.0; ///< Stack, page load and simulated session.
};

/// Inspects a finished hub session before teardown.
using SessionProbe =
    std::function<void(Telemetry &, const std::vector<FrameRecord> &,
                        const std::vector<ConfigInterval> &)>;

class Instrumented final : public Workload {
public:
  explicit Instrumented(const WorkloadOptions &O)
      : Seed(O.Seed), Dir(O.ScratchDir) {
    Artifacts.TracePath = Dir + "/session.trace.json";
    Artifacts.LogPath = Dir + "/session.events.jsonl";
    Artifacts.MetricsPath = Dir + "/session.metrics.json";
    Artifacts.BlackboxPath = Dir + "/session.blackbox.json";
    Artifacts.Alerts = true;
    Artifacts.CommandLine = "gw-perfbench --workload=instrumented";
  }

  const char *passMeaning() const override {
    return "one full-hub session with artifact export (session_ms)";
  }
  const char *opMeaning() const override {
    return "the same session with no hub and no export (bare_session_ms)";
  }

  // Warm-up: a bare session and a recorded one. The export is left
  // out: its disk writes would make setup_s track the disk, not the
  // program.
  void setup() override {
    std::filesystem::create_directories(Dir);
    runSession(false);
    runSession(true, /*Export=*/false);
  }

  // A pass is BareRepeats bare sessions plus one instrumented session.
  // The first bare sessions after an export run with cold caches; at 100
  // a pass they stay well beyond op_ms.p90 instead of straddling it.
  // The two kinds' energies differ in the last bits (1 ms meter sampling
  // splits the energy integral), so each is checked against its own
  // first repetition only.
  PassTiming pass(Outcome &Out) override {
    PassTiming P;
    for (unsigned I = 0; I < BareRepeats; ++I) {
      Session Bare = checkedSession(false, Out);
      P.OpMs.push_back(Bare.TotalMs);
      if (!Spans)
        BareRunMs.push_back(Bare.RunMs);
    }
    Session Full = checkedSession(true, Out);
    if (!Spans)
      HubRunMs.push_back(Full.RunMs);
    P.WallMs = Full.TotalMs;
    return P;
  }

  void verify(Outcome &Out) override {
    try {
      std::string Log = readFile(Artifacts.LogPath);
      std::string Body = Log.substr(Log.find('\n') + 1);
      size_t Skipped = 0;
      TelemetryLog Back = TelemetryLog::fromJsonl(Body, &Skipped);
      if (Skipped != 0 || Back.size() != LastRecords ||
          Back.toJsonl() != Body)
        Out.fail("event log does not round-trip through fromJsonl");
      for (const std::string *Path :
           {&Artifacts.TracePath, &Artifacts.MetricsPath,
            &Artifacts.BlackboxPath}) {
        std::string Error;
        if (!json::parse(readFile(*Path), &Error))
          Out.fail(*Path + " is not JSON: " + Error);
      }
    } catch (const std::exception &E) {
      Out.fail(E.what());
    }
    removeArtifacts();
  }

  std::vector<Page> pages() const override { return {{"Goo.ne.jp", Seed}}; }

  void addTraced(const TraceContext &Ctx, MetricSet &M,
                 Outcome &Out) override {
    Counts C;
    ++Out.Attempted;
    auto Probe = [&](Telemetry &Tel, const std::vector<FrameRecord> &Frames,
                     const std::vector<ConfigInterval> &Cpu) {
      unsigned Reps = Ctx.Smoke ? 1 : 5;
      C = hubCounts(Tel);
      M.add("telemetry.spans", double(counterValue(Tel, "telemetry.spans")),
            "count");
      M.add("telemetry.alerts",
            double(counterValue(Tel, "telemetry.alerts")), "count");
      M.add("telemetry.export_jsonl_ms",
            medianMs(Reps, [&Tel] { (void)Tel.log().toJsonl(); }), "ms");
      M.add("telemetry.export_trace_ms", medianMs(Reps, [&] {
              (void)exportChromeTrace(Frames, Cpu, Tel);
            }),
            "ms");
    };
    runSession(true, true, Probe);
    Session Bare = runSession(false);
    C.Events = double(Bare.Events);
    C.Switches = double(LastSwitches);
    C.Migrations = double(LastMigrations);
    C.SetupMs = LastMakeAppMs;
    addCounts(C, Ctx.OpP50Ms, M);
    double RecordNs = (median(HubRunMs) - median(BareRunMs)) * 1e6 /
                      std::max(1.0, C.Records);
    M.add("telemetry.record_ns", RecordNs, "ns");
    double Bytes = 0;
    for (const std::string *Path :
         {&Artifacts.TracePath, &Artifacts.LogPath, &Artifacts.MetricsPath,
          &Artifacts.BlackboxPath})
      Bytes += double(std::filesystem::file_size(*Path));
    M.add("telemetry.artifact_bytes", Bytes, "bytes");
    removeArtifacts();
  }

private:
  /// Each export goes to fresh files that are deleted once checked, so
  /// it stays in the page cache: ext4 pushes a file rewritten in place
  /// to disk at once, and ~150 MB of writes per run would slow every
  /// run sharing the disk.
  void removeArtifacts() const {
    for (const std::string *Path :
         {&Artifacts.TracePath, &Artifacts.LogPath, &Artifacts.MetricsPath,
          &Artifacts.BlackboxPath})
      std::filesystem::remove(*Path);
  }

  Session checkedSession(bool Hub, Outcome &Out) {
    const char *What = Hub ? "instrumented session" : "bare session";
    ++Out.Attempted;
    try {
      Session S = runSession(Hub);
      Digests.check(Hub ? 1 : 0, S.Digest, Out, What);
      return S;
    } catch (const std::exception &E) {
      Out.fail(std::string(What) + ": " + E.what());
      return {};
    }
  }

  /// One Goo.ne.jp x GreenWeb-I full session, driven the way
  /// examples/full_evaluation.cpp exports a trace. With \p Hub a full
  /// Telemetry hub records it (detectors, flight recorder, 1 ms meter
  /// samples) and, with \p Export, writeTelemetryArtifacts exports it.
  Session runSession(bool Hub, bool Export = true,
                     const SessionProbe &Probe = {}) {
    Export = Export && Hub;
    if (Export)
      removeArtifacts();
    Session S;
    uint64_t Start = nowNs();
    AppDefinition App = makeApp("Goo.ne.jp", Seed);
    uint64_t AppNs = nowNs() - Start;
    LastMakeAppMs = double(AppNs) / 1e6;
    if (Spans)
      (*Spans)["workloads"] += AppNs;

    Simulator Sim;
    std::optional<Telemetry> Tel;
    if (Hub) {
      Tel.emplace();
      Artifacts.configureHub(*Tel);
      Sim.setTelemetry(&*Tel);
    }
    AcmpChip Chip(Sim);
    EnergyMeter Meter(Chip);
    if (Hub)
      Meter.enableSampling(Duration::milliseconds(1));
    std::optional<ConfigTimelineRecorder> Recorder;
    if (Hub)
      Recorder.emplace(Chip);
    Browser B(Sim, Chip);
    AnnotationRegistry Registry;
    GreenWebRuntime::Params Params;
    Params.Scenario = UsageScenario::Imperceptible;
    GreenWebRuntime Gov(Registry, Params);
    Gov.setEnergyMeter(&Meter);
    B.OnPageParsed = [&] {
      Registry.clear();
      Registry.loadFromPage(B);
    };
    Gov.attach(B);
    B.loadPage(App.Html);
    TimePoint Origin = Sim.now();
    for (const TraceEvent &Event : App.Full.Events)
      Sim.scheduleAt(Origin + Event.At, [&B, Event] {
        B.dispatchInput(Event.Type, Event.TargetId);
      });
    S.Events = Sim.runUntil(Origin + App.Full.SessionLength +
                            Duration::seconds(2));
    if (Hub)
      Meter.recordSampleNow();
    S.RunMs = msSince(Start) - LastMakeAppMs;
    S.Digest = fleetHash(formatString(
        "%.17g|%.17g|%.17g|%zu|%llu|%llu|%zu", Meter.totalJoules(),
        Meter.bigJoules(), Meter.littleJoules(),
        B.frameTracker().frames().size(),
        static_cast<unsigned long long>(Chip.freqSwitches()),
        static_cast<unsigned long long>(Chip.migrations()),
        B.ScriptErrors.size()));
    LastSwitches = Chip.freqSwitches();
    LastMigrations = Chip.migrations();

    if (Export) {
      uint64_t ExportStart = nowNs();
      writeTelemetryArtifacts(Artifacts, *Tel, B.frameTracker().frames(),
                              Recorder->intervals());
      if (Spans)
        (*Spans)["telemetry"] += nowNs() - ExportStart;
      LastRecords = Tel->log().size();
      if (Probe)
        Probe(*Tel, B.frameTracker().frames(), Recorder->intervals());
    }
    Gov.detach();
    S.TotalMs = msSince(Start);
    return S;
  }

  static constexpr unsigned BareRepeats = 100;

  uint64_t Seed;
  std::string Dir;
  TelemetryArtifactOptions Artifacts;
  size_t LastRecords = 0;
  uint64_t LastSwitches = 0;
  uint64_t LastMigrations = 0;
  double LastMakeAppMs = 0.0;
  std::vector<double> BareRunMs;
  std::vector<double> HubRunMs;
};

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"paper_suite", "fleet",
                                                 "instrumented"};
  return Names;
}

std::unique_ptr<Workload>
perfbench::makeWorkload(const std::string &Name, const WorkloadOptions &Opts) {
  if (Name == "paper_suite")
    return std::make_unique<PaperSuite>(Opts);
  if (Name == "fleet")
    return std::make_unique<Fleet>(Opts);
  if (Name == "instrumented")
    return std::make_unique<Instrumented>(Opts);
  return nullptr;
}
