//===- examples/learned_ablation.cpp - PredictiveGovernor ablation --------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Ablates the fleet-trained PredictiveGovernor against the LTM runtime
// (GreenWeb-I) with gw-diff as referee:
//
//   learned_ablation --model=examples/models/predictive.json
//       all 12 apps (3-seed medians) + every chaos scenario
//   learned_ablation --model=... --baseline-out=base.json
//       --candidate-out=cand.json
//       also write gw-diff-able artifacts, stamped with the governor
//       in their run-metadata headers
//
// The run self-gates (exit 1) unless the predictive governor beats or
// matches the baseline on energy at equal-or-better QoS on at least
// --min-wins apps AND regresses QoS on no chaos scenario. CI runs this
// as the learned-governor behavioral gate.
//
// Flags: --model=FILE (required), --baseline-out=FILE,
// --candidate-out=FILE, --chaos-app=NAME (Cnet), --min-wins=N (8),
// --energy-tolerance=PCT (0.5), --qos-tolerance=PP (0.5),
// --chaos-tolerance=PP (1.0), --confidence=X (0.6).
//
//===----------------------------------------------------------------------===//

#include "faults/FaultPlan.h"
#include "greenweb/Features.h"
#include "profiling/RunCompare.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "workloads/Experiment.h"

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

using namespace greenweb;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --model=FILE [--baseline-out=FILE] "
               "[--candidate-out=FILE] [--chaos-app=NAME] [--min-wins=N] "
               "[--energy-tolerance=PCT] [--qos-tolerance=PP] "
               "[--chaos-tolerance=PP] [--confidence=X]\n",
               Argv0);
  return 2;
}

const std::vector<uint64_t> kAppSeeds = {1, 2, 3};
/// Chaos legs are heavy-tailed (a single injected spike frame moves the
/// violation metric by several points), so they run more seeds and are
/// judged on the paired per-seed difference, which cancels seed-level
/// environmental luck that hits both governors symmetrically.
const std::vector<uint64_t> kChaosSeeds = {1, 2, 3, 4, 5, 6, 7};

/// Mean of candidate-minus-baseline across paired seeds.
double meanPairedDiff(const std::vector<double> &Base,
                      const std::vector<double> &Cand) {
  double Sum = 0.0;
  for (size_t I = 0; I < Base.size(); ++I)
    Sum += Cand[I] - Base[I];
  return Base.empty() ? 0.0 : Sum / double(Base.size());
}

/// One (app-or-scenario, governor) leg: per-seed samples + medians.
struct Leg {
  std::vector<double> EnergySamples;
  std::vector<double> ViolationSamples;
  double Energy = 0.0;
  double ViolationPct = 0.0;
  uint64_t Coalesced = 0;
};

Leg runLeg(const std::string &App, const std::string &Gov,
           const DecisionTreeModel *Model, double Confidence,
           const std::string &Scenario,
           const std::vector<uint64_t> &Seeds) {
  Leg L;
  for (uint64_t Seed : Seeds) {
    ExperimentConfig C;
    C.AppName = App;
    C.Mode = ExperimentMode::Micro;
    C.GovernorName = Gov;
    C.Seed = Seed;
    C.Model = Model;
    C.PredictiveConfidence = Confidence;
    if (!Scenario.empty()) {
      if (Scenario == "chaos")
        C.Faults = FaultPlan::chaosPlan(Seed);
      else
        C.Faults = FaultPlan::scenario(Scenario, Seed);
      // Chaos legs judge the governors' fault story, so both run with
      // the graceful-degradation watchdog on — the production setup.
      GreenWebRuntime::Params P;
      P.EnableWatchdog = true;
      C.RuntimeParams = P;
    }
    ExperimentResult R = runExperiment(C);
    L.EnergySamples.push_back(R.TotalJoules);
    L.ViolationSamples.push_back(R.ViolationPctImperceptible);
    L.Coalesced += R.InputEventsCoalesced;
  }
  L.Energy = median(L.EnergySamples);
  L.ViolationPct = median(L.ViolationSamples);
  return L;
}

/// Writes \p Report to \p Path (when set), stamped with \p Governor in
/// its run-metadata header.
bool writeArtifact(const prof::BenchReport &Report, const std::string &Path,
                   const std::string &Governor) {
  prof::RunMeta Meta = prof::RunMeta::current("learned_ablation");
  Meta.Governor = Governor;
  return Path.empty() || Report.write(Path, Meta);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string ModelPath, BaselineOut, CandidateOut, ChaosApp = "Cnet";
  unsigned MinWins = 8;
  double EnergyTolerancePct = 0.5, QosTolerancePp = 0.5,
         ChaosTolerancePp = 1.0, Confidence = 0.6;
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    // Numeric values must parse whole: "--min-wins=abc" once read as 0
    // and passed the gate.
    bool Bad = false;
    auto Number = [&Bad](std::string_view V, double &Out) {
      std::optional<double> N = parseDouble(V);
      Bad = !N;
      Out = N.value_or(Out);
    };
    if (auto V = flagValue(Arg, "--model="))
      ModelPath = *V;
    else if (auto V = flagValue(Arg, "--baseline-out="))
      BaselineOut = *V;
    else if (auto V = flagValue(Arg, "--candidate-out="))
      CandidateOut = *V;
    else if (auto V = flagValue(Arg, "--chaos-app="))
      ChaosApp = *V;
    else if (auto V = flagValue(Arg, "--min-wins=")) {
      std::optional<unsigned> N = parseCount<unsigned>(*V);
      Bad = !N;
      MinWins = N.value_or(MinWins);
    } else if (auto V = flagValue(Arg, "--energy-tolerance="))
      Number(*V, EnergyTolerancePct);
    else if (auto V = flagValue(Arg, "--qos-tolerance="))
      Number(*V, QosTolerancePp);
    else if (auto V = flagValue(Arg, "--chaos-tolerance="))
      Number(*V, ChaosTolerancePp);
    else if (auto V = flagValue(Arg, "--confidence="))
      Number(*V, Confidence);
    else {
      std::fprintf(stderr, "error: unknown flag %s\n", Argv[I]);
      return usage(Argv[0]);
    }
    if (Bad) {
      std::fprintf(stderr, "error: invalid value: %s\n", Argv[I]);
      return usage(Argv[0]);
    }
  }
  if (ModelPath.empty()) {
    std::fprintf(stderr, "error: --model= is required\n");
    return usage(Argv[0]);
  }

  DecisionTreeModel Model;
  std::string Error;
  if (!DecisionTreeModel::loadFile(ModelPath, Model, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return usage(Argv[0]);
  }
  std::fprintf(stderr, "model: %llu training rows, %zu nodes\n",
               static_cast<unsigned long long>(Model.TrainedRows),
               Model.Nodes.size());

  // gw-diff-able artifacts; samples keep 6 digits, since per-seed
  // energies differ in the fourth.
  prof::BenchReport BaseArt("learned_ablation", 6),
      CandArt("learned_ablation", 6);
  TablePrinter Apps("PredictiveGovernor vs GreenWeb-I (3-seed medians)");
  Apps.row()
      .cell("App")
      .cell("LTM J")
      .cell("Pred J")
      .cell("dE%")
      .cell("LTM viol%")
      .cell("Pred viol%")
      .cell("verdict");

  unsigned Wins = 0;
  std::vector<std::string> AppNames = allAppNames();
  for (const std::string &App : AppNames) {
    Leg Base = runLeg(App, governors::GreenWebI, nullptr, Confidence, "",
                      kAppSeeds);
    Leg Cand = runLeg(App, governors::PredictiveI, &Model, Confidence, "",
                      kAppSeeds);
    double DeltaEPct =
        Base.Energy == 0.0
            ? 0.0
            : 100.0 * (Cand.Energy - Base.Energy) / Base.Energy;
    bool EnergyOk = DeltaEPct <= EnergyTolerancePct;
    bool QosOk =
        Cand.ViolationPct <= Base.ViolationPct + QosTolerancePp;
    bool Win = EnergyOk && QosOk;
    Wins += Win ? 1 : 0;
    Apps.row()
        .cell(App)
        .cell(Base.Energy, 3)
        .cell(Cand.Energy, 3)
        .cell(formatString("%+.2f", DeltaEPct))
        .cell(Base.ViolationPct, 2)
        .cell(Cand.ViolationPct, 2)
        .cell(Win ? (DeltaEPct < -EnergyTolerancePct ? "win" : "match")
                  : "loss");
    BaseArt.scalar("app_energy_joules." + App, Base.Energy, "J",
                   Base.EnergySamples);
    BaseArt.scalar("app_violation_pct." + App, Base.ViolationPct, "%",
                   Base.ViolationSamples);
    CandArt.scalar("app_energy_joules." + App, Cand.Energy, "J",
                   Cand.EnergySamples);
    CandArt.scalar("app_violation_pct." + App, Cand.ViolationPct, "%",
                   Cand.ViolationSamples);
  }
  Apps.print();

  TablePrinter Chaos("Chaos scenarios (" + ChaosApp +
                     ", watchdog on, " +
                     formatString("%zu", kChaosSeeds.size()) +
                     "-seed medians, paired-diff verdict)");
  Chaos.row()
      .cell("Scenario")
      .cell("LTM viol%")
      .cell("Pred viol%")
      .cell("dViol pp")
      .cell("LTM J")
      .cell("Pred J")
      .cell("verdict");
  std::vector<std::string> Scenarios = FaultPlan::scenarioNames();
  Scenarios.push_back("chaos");
  unsigned ChaosRegressions = 0;
  for (const std::string &Sc : Scenarios) {
    Leg Base = runLeg(ChaosApp, governors::GreenWebI, nullptr, Confidence,
                      Sc, kChaosSeeds);
    Leg Cand = runLeg(ChaosApp, governors::PredictiveI, &Model, Confidence,
                      Sc, kChaosSeeds);
    // Judged on the mean paired per-seed difference: chaos runs are
    // heavy-tailed (one injected spike frame is worth several points)
    // and the catastrophes land on either governor depending on seed;
    // pairing cancels that shared luck and exposes only systematic
    // degradation.
    double DiffPp =
        meanPairedDiff(Base.ViolationSamples, Cand.ViolationSamples);
    bool Regressed = DiffPp > ChaosTolerancePp;
    ChaosRegressions += Regressed ? 1 : 0;
    Chaos.row()
        .cell(Sc)
        .cell(Base.ViolationPct, 2)
        .cell(Cand.ViolationPct, 2)
        .cell(formatString("%+.2f", DiffPp))
        .cell(Base.Energy, 3)
        .cell(Cand.Energy, 3)
        .cell(Regressed ? "REGRESSED" : "ok");
    BaseArt.scalar("chaos_violation_pct." + Sc, Base.ViolationPct, "%",
                   Base.ViolationSamples);
    BaseArt.scalar("chaos_energy_joules." + Sc, Base.Energy, "J",
                   Base.EnergySamples);
    CandArt.scalar("chaos_violation_pct." + Sc, Cand.ViolationPct, "%",
                   Cand.ViolationSamples);
    CandArt.scalar("chaos_energy_joules." + Sc, Cand.Energy, "J",
                   Cand.EnergySamples);
  }
  Chaos.print();

  if (!writeArtifact(BaseArt, BaselineOut, governors::GreenWebI) ||
      !writeArtifact(CandArt, CandidateOut, governors::PredictiveI))
    return 1;

  std::printf("\npredictive wins/matches %u of %zu apps (need %u); "
              "%u chaos regression(s)\n",
              Wins, AppNames.size(), MinWins, ChaosRegressions);
  if (Wins < MinWins || ChaosRegressions > 0) {
    std::fprintf(stderr, "FAIL: learned-governor ablation gate\n");
    return 1;
  }
  std::printf("PASS: learned-governor ablation gate\n");
  return 0;
}
