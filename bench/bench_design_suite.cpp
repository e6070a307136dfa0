//===- bench/bench_design_suite.cpp - Tables 1-2, AUTOGREEN, A1-A7 --------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Regenerates the paper's design arguments: Tables 1-2 (Sec. 3.3, 4.1),
// AUTOGREEN (Sec. 5) and ablations A1-A7 (feedback, mis-annotation
// defense, QoS-type confusion, governor sweep, DVFS model accuracy,
// re-profiling threshold, annotation-free EBS).
//
// Sections read full sessions at seed 1 (no three-seed median). Each
// session cell runs once across --jobs workers, however many sections
// read it; A2's budget cells need the honest runs' energy, so they run
// as a second batch. Tables 1-2, the AUTOGREEN classification and A5
// run no session.
//
// --json=PATH writes every table, named by section (table1, table2,
// autogreen_class, autogreen_energy, a1 ... a7), and each "Expected
// shape" as scalars: the values it quotes, and each ordering it states
// as 1 where it holds and 0 where not, per app (a4.gw_i_below_ondemand.MSN).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "autogreen/AutoGreen.h"
#include "browser/Browser.h"
#include "css/CssParser.h"
#include "css/StyleResolver.h"
#include "dom/Dom.h"
#include "greenweb/PerfModel.h"
#include "greenweb/Qos.h"
#include "support/Statistics.h"
#include "workloads/Apps.h"
#include "workloads/ParallelRunner.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <tuple>

using namespace greenweb;

namespace {

/// One full session, as the knobs a section sets. Every other field keeps
/// its ExperimentConfig default, and knobs left at their defaults leave
/// GreenWebRuntime::Params{}, so sections asking for equal cells share
/// one run.
struct Cell {
  std::string App;
  std::string Governor;
  bool AutoGreen = false;
  std::optional<QosType> ForceType = std::nullopt;
  double TargetScale = 1.0;
  bool Clamp = false;
  std::optional<double> BudgetJoules = std::nullopt;
  bool Feedback = GreenWebRuntime::Params{}.EnableFeedback;
  unsigned RecalibrateAfter = GreenWebRuntime::Params{}.RecalibrateAfter;

  auto operator<=>(const Cell &) const = default;

  ExperimentConfig config() const {
    ExperimentConfig C;
    C.AppName = App;
    C.GovernorName = Governor;
    C.UseAutoGreenAnnotations = AutoGreen;
    C.ForceQosType = ForceType;
    C.TargetScale = TargetScale;
    GreenWebRuntime::Params P;
    P.ClampTargetsToDefaults = Clamp;
    P.EnergyBudgetJoules = BudgetJoules;
    P.EnableFeedback = Feedback;
    P.RecalibrateAfter = RecalibrateAfter;
    C.RuntimeParams = P;
    return C;
  }
};

using Sessions = std::map<Cell, ExperimentResult>;

/// Runs each cell of \p Wanted that \p Done lacks, once, across the
/// harness's --jobs workers (Harness::sweepOptions), and adds its result
/// to \p Done.
void runCells(bench::Harness &Run, const std::vector<Cell> &Wanted,
              Sessions &Done) {
  std::vector<ExperimentResult *> Slots;
  std::vector<ExperimentConfig> Configs;
  for (const Cell &C : Wanted)
    if (auto [It, New] = Done.try_emplace(C); New) {
      Slots.push_back(&It->second);
      Configs.push_back(C.config());
    }
  std::vector<ExperimentResult> Results =
      runExperimentsParallel(Configs, Run.sweepOptions());
  for (size_t I = 0; I < Results.size(); ++I)
    *Slots[I] = std::move(Results[I]);
}

/// Publishes CLAIM.KEY, an ordering a section states: 1 where it holds.
void holds(prof::BenchReport &Json, const std::string &Claim,
           const std::string &Key, bool Holds) {
  Json.scalar(Claim + "." + Key, Holds ? 1.0 : 0.0);
}

/// Publishes the least and greatest of \p Values as NAME.min / NAME.max.
void range(prof::BenchReport &Json, const std::string &Name,
           const std::vector<double> &Values, std::string_view Unit) {
  auto [Min, Max] = std::minmax_element(Values.begin(), Values.end());
  Json.scalar(Name + ".min", *Min, Unit);
  Json.scalar(Name + ".max", *Max, Unit);
}

constexpr const char *AutoGreenApps[] = {"CamanJS", "LZMA-JS", "Todo",
                                         "Goo.ne.jp", "W3Schools"};
constexpr const char *A1Apps[] = {"Cnet", "W3Schools", "Amazon"};
constexpr const char *GreenWebGovs[] = {governors::GreenWebI,
                                        governors::GreenWebU};
constexpr const char *A2Apps[] = {"Todo", "Goo.ne.jp", "Amazon"};
constexpr double A2AttackScale = 0.05; // every target 20x tighter
/// A3: each app's own QoS type; the forced run flips it.
constexpr std::pair<const char *, QosType> A3Apps[] = {
    {"Goo.ne.jp", QosType::Continuous},
    {"W3Schools", QosType::Continuous},
    {"CamanJS", QosType::Single},
    {"Todo", QosType::Single}};
constexpr const char *A4Apps[] = {"MSN", "Goo.ne.jp", "Paper.js", "CamanJS"};
constexpr const char *A4Govs[] = {governors::Perf, governors::Interactive,
                                  governors::Ondemand, governors::Powersave,
                                  governors::GreenWebI, governors::GreenWebU};
constexpr const char *A6Apps[] = {"W3Schools", "Cnet"};
constexpr unsigned A6Never = 1000000u;
constexpr unsigned A6Thresholds[] = {2u, 4u, 6u, 10u, A6Never};
constexpr const char *A7Apps[] = {"MSN", "CamanJS", "Todo", "Goo.ne.jp"};
constexpr const char *A7Govs[] = {governors::Ebs, governors::GreenWebI,
                                  governors::GreenWebU};

QosType flipped(QosType Type) {
  return Type == QosType::Single ? QosType::Continuous : QosType::Single;
}

Cell a2Attack(const char *App, bool Clamp) {
  Cell C{App, governors::GreenWebU};
  C.TargetScale = A2AttackScale;
  C.Clamp = Clamp;
  return C;
}

/// The attack under a UAI budget of half the honest run's energy.
Cell a2Budget(const Sessions &S, const char *App) {
  Cell C = a2Attack(App, false);
  C.BudgetJoules = S.at({App, governors::GreenWebU}).TotalJoules * 0.5;
  return C;
}

Cell a3Cell(const char *App, QosType Type, bool Forced) {
  Cell C{App, governors::GreenWebI};
  if (Forced)
    C.ForceType = flipped(Type);
  return C;
}

Cell a6Cell(const char *App, unsigned Threshold) {
  Cell C{App, governors::GreenWebU};
  C.RecalibrateAfter = Threshold;
  return C;
}

/// Every session cell the sections read but A2's budget cells.
std::vector<Cell> sessionCells() {
  std::vector<Cell> Out;
  for (const char *App : AutoGreenApps) {
    Cell C{App, governors::GreenWebI};
    Out.push_back(C);
    C.AutoGreen = true;
    Out.push_back(C);
  }
  for (const char *App : A1Apps)
    for (const char *Gov : GreenWebGovs)
      for (bool Feedback : {true, false})
        Out.push_back({.App = App, .Governor = Gov, .Feedback = Feedback});
  for (const char *App : A2Apps) {
    Out.push_back({App, governors::GreenWebU});
    Out.push_back(a2Attack(App, false));
    Out.push_back(a2Attack(App, true));
  }
  for (const auto &[App, Type] : A3Apps)
    for (bool Forced : {false, true})
      Out.push_back(a3Cell(App, Type, Forced));
  for (const char *App : A4Apps)
    for (const char *Gov : A4Govs)
      Out.push_back({App, Gov});
  for (const char *App : A6Apps)
    for (unsigned Threshold : A6Thresholds)
      Out.push_back(a6Cell(App, Threshold));
  for (const char *App : A7Apps)
    for (const char *Gov : A7Govs)
      Out.push_back({App, Gov});
  return Out;
}

void table1(prof::BenchReport &Json) {
  bench::banner("Table 1: QoS categories",
                "Interactions fall into three categories by QoS type and "
                "target (Sec. 3.3)");

  // Which LTM interactions produce each category, from the app models.
  std::map<std::pair<QosType, int64_t>, std::string> Interactions;
  for (const std::string &Name : allAppNames()) {
    AppDefinition App = makeApp(Name, 1);
    const char *Tag = App.MicroInteraction == InteractionKind::Loading ? "L"
                      : App.MicroInteraction == InteractionKind::Tapping
                          ? "T"
                          : "M";
    std::string &Slot =
        Interactions[{App.MicroType, App.MicroTarget.Imperceptible.nanos()}];
    if (Slot.find(Tag) == std::string::npos) {
      if (!Slot.empty())
        Slot += ", ";
      Slot += Tag;
    }
  }
  auto interactionsFor = [&](QosType Type, QosTarget Target) {
    auto It = Interactions.find({Type, Target.Imperceptible.nanos()});
    return It == Interactions.end() ? std::string("-") : It->second;
  };

  TablePrinter Table = bench::table(
      {"QoS Type", "QoS Target (TI, TU)", "Description", "Interaction"});
  QosTarget Continuous = defaultContinuousTarget();
  Table.row()
      .cell("Continuous")
      .cell(formatString("(%.1f, %.1f) ms", Continuous.Imperceptible.millis(),
                         Continuous.Usable.millis()))
      .cell("QoS evaluated by continuous frame latencies")
      .cell(interactionsFor(QosType::Continuous, Continuous) + " (+T)");
  QosTarget Short = defaultSingleShortTarget();
  Table.row()
      .cell("Single")
      .cell(formatString("(%.0f, %.0f) ms", Short.Imperceptible.millis(),
                         Short.Usable.millis()))
      .cell("Single frame latency; short response expected")
      .cell(interactionsFor(QosType::Single, Short));
  QosTarget Long = defaultSingleLongTarget();
  Table.row()
      .cell("Single")
      .cell(formatString("(%.0f, %.0f) s", Long.Imperceptible.secs(),
                         Long.Usable.secs()))
      .cell("Single frame latency; long response expected")
      .cell(interactionsFor(QosType::Single, Long));
  Table.print();
  Json.table("table1", Table);

  std::printf("\nPaper: continuous (16.6, 33.3) ms for T/M; single "
              "(100, 300) ms for T; single (1, 10) s for L/T.\n");
}

void table2(prof::BenchReport &Json) {
  bench::banner("Table 2: GreenWeb API specification",
                "Each API is a new CSS rule specifying QoS information "
                "(Sec. 4.1, Fig. 3 grammar)");

  struct Row {
    const char *Css;
    const char *PaperSemantics;
  };
  const Row Rows[] = {
      {"div#e:QoS { ontouchstart-qos: continuous; }",
       "continuously optimize frame latency; Table 1 defaults"},
      {"div#e:QoS { onclick-qos: single, short; }",
       "optimize the single response frame; short expectation"},
      {"div#e:QoS { onclick-qos: single, long; }",
       "optimize the single response frame; long expectation"},
      {"div#e:QoS { ontouchmove-qos: continuous, 20, 100; }",
       "explicit TI/TU override (Fig. 5 example)"},
      {"div#e:QoS { onclick-qos: single, 1000, 10000; }",
       "explicit TI/TU on a single event"},
  };

  Document Doc;
  Element *E = Doc.root().createChild("div");
  E->setId("e");

  TablePrinter Table =
      bench::table({"Syntax", "Parsed semantics", "Paper row"});
  for (const Row &R : Rows) {
    css::Stylesheet Sheet = css::parseStylesheet(R.Css);
    css::StyleResolver Resolver(Sheet);
    std::vector<css::QosAnnotation> Anns = Resolver.qosAnnotationsFor(*E);
    std::string Meaning = "<parse failed>";
    if (Anns.size() == 1) {
      QosSpec Spec = lowerQosValue(Anns[0].Value);
      Meaning = formatString("on %s: %s", Anns[0].EventName.c_str(),
                             Spec.str().c_str());
    }
    Table.row().cell(R.Css).cell(Meaning).cell(R.PaperSemantics);
  }
  Table.print();
  Json.table("table2", Table);

  std::printf("\nMalformed declarations (grammar enforcement: TI and TU "
              "must appear together, etc.):\n");
  const char *Bad[] = {
      "div#e:QoS { onclick-qos: continuous, 20; }",
      "div#e:QoS { onclick-qos: sometimes; }",
      "div#e { onclick-qos: single, short; }", // missing :QoS qualifier
  };
  for (const char *Css : Bad) {
    css::Stylesheet Sheet = css::parseStylesheet(Css);
    css::StyleResolver Resolver(Sheet);
    std::vector<std::string> Diags;
    Resolver.qosAnnotationsFor(*E, &Diags);
    std::printf("  %-52s -> %s\n", Css,
                Diags.empty() ? "accepted (?)" : Diags[0].c_str());
  }
}

void autogreen(const Sessions &S, prof::BenchReport &Json) {
  bench::banner("AUTOGREEN: automatic annotation",
                "Classification per app plus auto-vs-manual energy "
                "(Sec. 5, Sec. 7.3 'Annotation Effort')");

  TablePrinter Class = bench::table(
      {"Application", "Profiled", "Continuous", "Single", "Skipped"},
      "Classification of discovered events");
  for (const std::string &Name : allAppNames()) {
    AppDefinition App = makeApp(Name, 1);
    AutoGreenResult R = runAutoGreen(App.Html);
    Class.row()
        .cell(Name)
        .cell(int64_t(R.EventsProfiled))
        .cell(int64_t(R.ContinuousDetected))
        .cell(int64_t(R.SingleDetected))
        .cell(int64_t(R.SkippedUnselectable));
  }
  Class.print();
  Json.table("autogreen_class", Class);

  std::printf("\nEnd-to-end: full interaction under GreenWeb-I with "
              "manual vs AUTOGREEN annotations\n\n");
  TablePrinter Energy =
      bench::table({"Application", "Manual (mJ)", "AutoGreen (mJ)",
                    "Auto/Manual", "Auto viol-I (+%)"});
  // A representative subset spanning the three QoS categories.
  for (const char *Name : AutoGreenApps) {
    Cell C{Name, governors::GreenWebI};
    const ExperimentResult &Manual = S.at(C);
    C.AutoGreen = true;
    const ExperimentResult &Auto = S.at(C);
    Energy.row()
        .cell(Name)
        .cell(Manual.TotalJoules * 1e3, 1)
        .cell(Auto.TotalJoules * 1e3, 1)
        .cell(bench::percentOf(Auto.TotalJoules, Manual.TotalJoules))
        .cell(formatString("%+.2f",
                           Auto.ViolationPctImperceptible -
                               Manual.ViolationPctImperceptible));
    Json.scalar(std::string("autogreen.auto_of_manual_pct.") + Name,
                100.0 * Auto.TotalJoules / Manual.TotalJoules, "%");
    holds(Json, "autogreen.auto_above_manual", Name,
          Auto.TotalJoules > Manual.TotalJoules);
  }
  Energy.print();
  Json.table("autogreen_energy", Energy);
  std::printf("\nShape check: heavyweight single apps (CamanJS, LZMA-JS) "
              "cost more under AUTOGREEN because its conservative "
              "'single, short' assumption chases a 100 ms target that "
              "needs the big cluster; the paper fixes these by hand "
              "(Sec. 7.3).\n");
}

void a1(const Sessions &S, prof::BenchReport &Json) {
  bench::banner("Ablation A1: feedback fine-tuning on/off",
                "Sec. 6.2 event-based feedback");

  TablePrinter Table =
      bench::table({"Application", "Scenario", "Feedback", "Energy (mJ)",
                    "Violations (%)", "Feedback steps", "Recalibrations"});

  for (const char *Name : A1Apps) {
    for (const char *Gov : GreenWebGovs) {
      bool Usable = governors::usable(Gov);
      std::string Key = formatString("%s.%s", Name, Usable ? "u" : "i");
      double Joules[2] = {}, Violations[2] = {};
      for (bool Feedback : {true, false}) {
        const ExperimentResult &R =
            S.at({.App = Name, .Governor = Gov, .Feedback = Feedback});
        Joules[Feedback] = R.TotalJoules;
        Violations[Feedback] =
            Usable ? R.ViolationPctUsable : R.ViolationPctImperceptible;
        Table.row()
            .cell(Name)
            .cell(Usable ? "usable" : "imperceptible")
            .cell(Feedback ? "on" : "off")
            .cell(R.TotalJoules * 1e3, 1)
            .cell(Violations[Feedback], 2)
            .cell(int64_t(R.RuntimeStats.FeedbackStepsUp +
                          R.RuntimeStats.FeedbackStepsDown))
            .cell(int64_t(R.RuntimeStats.Recalibrations));
        const char *Side = Feedback ? "on" : "off";
        Json.scalar(formatString("a1.energy_mj.%s.%s", Key.c_str(), Side),
                    R.TotalJoules * 1e3, "mJ");
        Json.scalar(
            formatString("a1.recalibrations.%s.%s", Key.c_str(), Side),
            double(R.RuntimeStats.Recalibrations));
      }
      holds(Json, "a1.off_raises_violations", Key,
            Violations[false] > Violations[true]);
      holds(Json, "a1.off_energy_not_above", Key,
            Joules[false] <= Joules[true]);
    }
  }
  Table.print();
  Json.table("a1", Table);
  std::printf("\nExpected shape: disabling feedback raises violations on "
              "the surge-prone apps (Cnet in both scenarios, W3Schools "
              "under imperceptible) and never costs energy, as feedback "
              "only steps up; recalibrations go on, as mispredictions "
              "trigger them.\n");
}

void a2(const Sessions &S, prof::BenchReport &Json) {
  bench::banner("Ablation A2: mis-annotation defense (UAI)",
                "Sec. 8 'Defense Against Mis-annotation'");

  TablePrinter Table =
      bench::table({"Application", "Annotation", "Defense", "Energy (mJ)",
                    "vs honest", "Clamps"});

  // Percent of the honest run's energy, per defense.
  std::vector<double> AttackPct, ClampPct, BudgetPct;
  for (const char *Name : A2Apps) {
    const ExperimentResult &Honest = S.at({Name, governors::GreenWebU});
    const std::tuple<const char *, Cell, std::vector<double> *> Runs[] = {
        {"-", {Name, governors::GreenWebU}, nullptr},
        {"none", a2Attack(Name, false), &AttackPct},
        {"clamp", a2Attack(Name, true), &ClampPct},
        {"energy budget", a2Budget(S, Name), &BudgetPct},
    };
    for (const auto &[Defense, Run, Pct] : Runs) {
      const ExperimentResult &R = S.at(Run);
      Table.row()
          .cell(Name)
          .cell(Pct ? "20x tighter" : "honest")
          .cell(Defense)
          .cell(R.TotalJoules * 1e3, 1)
          .cell(bench::percentOf(R.TotalJoules, Honest.TotalJoules))
          .cell(int64_t(R.RuntimeStats.TargetClampsApplied));
      if (Pct)
        Pct->push_back(100.0 * R.TotalJoules / Honest.TotalJoules);
    }
    holds(Json, "a2.attack_above_honest", Name, AttackPct.back() > 100.0);
    holds(Json, "a2.budget_between", Name,
          BudgetPct.back() > 100.0 && BudgetPct.back() < AttackPct.back());
  }
  Table.print();
  Json.table("a2", Table);
  range(Json, "a2.attack_of_honest_pct", AttackPct, "%");
  range(Json, "a2.clamp_of_honest_pct", ClampPct, "%");
  range(Json, "a2.budget_of_honest_pct", BudgetPct, "%");
  std::printf("\nExpected shape: the attack inflates energy well above "
              "the honest run; the clamp restores it to near-honest "
              "levels; the budget defense lands in between (the attack "
              "runs unchecked until the budget is consumed).\n");
}

void a3(const Sessions &S, prof::BenchReport &Json) {
  bench::banner("Ablation A3: QoS-type confusion",
                "Sec. 3.2 'Distinguishing between continuous and single "
                "is important'");

  TablePrinter Table =
      bench::table({"Application", "Annotation type", "Energy (mJ)",
                    "Viol-I (%)", "Active frames optimized"});

  auto Optimized = [](const ExperimentResult &R) {
    return R.RuntimeStats.PredictedFrames + R.RuntimeStats.ProfilingFrames;
  };
  for (const auto &[Name, Type] : A3Apps) {
    const ExperimentResult *Runs[2] = {};
    for (bool Forced : {false, true}) {
      const ExperimentResult &R = S.at(a3Cell(Name, Type, Forced));
      Runs[Forced] = &R;
      Table.row()
          .cell(Name)
          .cell(Forced ? formatString("forced %s", qosTypeName(flipped(Type)))
                       : formatString("correct (%s)", qosTypeName(Type)))
          .cell(R.TotalJoules * 1e3, 1)
          .cell(R.ViolationPctImperceptible, 2)
          .cell(int64_t(Optimized(R)));
      std::string Key =
          formatString("%s.%s", Name, Forced ? "forced" : "correct");
      Json.scalar("a3.energy_mj." + Key, R.TotalJoules * 1e3, "mJ");
      Json.scalar("a3.violation_i_pct." + Key, R.ViolationPctImperceptible,
                  "%");
      Json.scalar("a3.frames_optimized." + Key, double(Optimized(R)));
    }
    const ExperimentResult &Correct = *Runs[false], &Forced = *Runs[true];
    holds(Json, "a3.forced_fewer_frames", Name,
          Optimized(Forced) < Optimized(Correct));
    holds(Json, "a3.forced_more_violations", Name,
          Forced.ViolationPctImperceptible >
              Correct.ViolationPctImperceptible);
    holds(Json, "a3.forced_more_energy", Name,
          Forced.TotalJoules > Correct.TotalJoules);
  }
  Table.print();
  Json.table("a3", Table);
  std::printf(
      "\nExpected shape: forcing animations to 'single' stops per-frame "
      "optimization after the first frame (fewer frames optimized, more "
      "violations); forcing taps to 'continuous' costs less energy, as "
      "they keep their own targets and are judged by per-frame "
      "production latency, not input-to-display delay.\n");
}

void a4(const Sessions &S, prof::BenchReport &Json) {
  bench::banner("Ablation A4: governor sweep",
                "Perf / Interactive / Ondemand / Powersave / GreenWeb");

  for (const char *App : A4Apps) {
    const ExperimentResult &Perf = S.at({App, governors::Perf});
    TablePrinter Table = bench::table(
        {"Governor", "Energy (mJ)", "vs Perf", "Viol-I (%)", "Viol-U (%)",
         "Switches"},
        formatString("%s (full interaction)", App));
    for (const char *Gov : A4Govs) {
      const ExperimentResult &R = S.at({App, Gov});
      Table.row()
          .cell(Gov)
          .cell(R.TotalJoules * 1e3, 1)
          .cell(bench::percentOf(R.TotalJoules, Perf.TotalJoules))
          .cell(R.ViolationPctImperceptible, 2)
          .cell(R.ViolationPctUsable, 2)
          .cell(int64_t(R.FreqSwitches + R.Migrations));
      std::string Key = formatString("%s.%s", App, Gov);
      Json.scalar("a4.energy_of_perf_pct." + Key,
                  100.0 * R.TotalJoules / Perf.TotalJoules, "%");
      Json.scalar("a4.violation_i_pct." + Key, R.ViolationPctImperceptible,
                  "%");
    }
    Table.print();
    Json.table("a4", Table);
    std::printf("\n");

    auto J = [&](const char *Gov) { return S.at({App, Gov}).TotalJoules; };
    auto ViolI = [&](const char *Gov) {
      return S.at({App, Gov}).ViolationPctImperceptible;
    };
    auto Claim = [&](const char *Name, bool Holds) {
      holds(Json, std::string("a4.") + Name, App, Holds);
    };
    namespace g = governors;
    Claim("powersave_below_gw_u", J(g::Powersave) < J(g::GreenWebU));
    Claim("gw_u_not_above_gw_i", J(g::GreenWebU) <= J(g::GreenWebI));
    Claim("gw_i_below_ondemand", J(g::GreenWebI) < J(g::Ondemand));
    Claim("gw_i_below_interactive", J(g::GreenWebI) < J(g::Interactive));
    Claim("ondemand_below_perf", J(g::Ondemand) < J(g::Perf));
    Claim("interactive_below_perf", J(g::Interactive) < J(g::Perf));
    Claim("powersave_violation_i_above_gw_i",
          ViolI(g::Powersave) > ViolI(g::GreenWebI));
    Claim("ondemand_violation_i_above_gw_i",
          ViolI(g::Ondemand) > ViolI(g::GreenWebI));
  }
  std::printf("Expected shape: energy Powersave < GreenWeb-U <= "
              "GreenWeb-I < Interactive < Perf; Ondemand, re-deciding "
              "every 100 ms, undercuts GreenWeb-I except on CamanJS and, "
              "like Powersave, pays with large imperceptible-scenario "
              "violations.\n");
}

/// Measures the mean per-frame pipeline latency of a short scripted
/// animation at a fixed configuration.
Duration measureFrameLatency(const AcmpConfig &Config, double WorkKCycles) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  Chip.setConfig(Config);
  Browser B(Sim, Chip);
  std::string Page = formatString(R"raw(
    <div id=c onclick="start()"></div>
    <script>
      var left = 12;
      function step() {
        performWork(%.0f);
        invalidate();
        left = left - 1;
        if (left > 0) { requestAnimationFrame(step); }
      }
      function start() { requestAnimationFrame(step); }
    </script>
  )raw",
                                   WorkKCycles);
  B.loadPage(Page);
  Sim.runUntil(Sim.now() + Duration::seconds(2));
  size_t Skip = B.frameTracker().frames().size();
  B.dispatchInput("click", "c");
  Sim.runUntil(Sim.now() + Duration::seconds(5));
  std::vector<double> Secs;
  for (size_t I = Skip; I < B.frameTracker().frames().size(); ++I) {
    const FrameRecord &F = B.frameTracker().frames()[I];
    Secs.push_back((F.ReadyTime - F.BeginTime).secs());
  }
  return Duration::fromSeconds(mean(Secs));
}

/// False when the model cannot be fitted.
bool a5(prof::BenchReport &Json) {
  bench::banner("Ablation A5: DVFS performance-model accuracy",
                "Equ. 1: T = T_independent + N_nonoverlap / f (Sec. 6.2)");

  Simulator Sim;
  AcmpChip Chip(Sim);

  for (double WorkK : {2000.0, 8000.0}) {
    AcmpConfig Max = Chip.spec().maxConfig();
    AcmpConfig Min = Chip.spec().minConfig();
    LatencyObservation AtMax{Max, measureFrameLatency(Max, WorkK)};
    LatencyObservation AtMin{Min, measureFrameLatency(Min, WorkK)};
    auto Model = fitDvfsModel(Chip, AtMax, AtMin);
    if (!Model) {
      std::printf("model fit failed\n");
      return false;
    }

    TablePrinter Table = bench::table(
        {"Config", "Predicted (ms)", "Measured (ms)", "Error"},
        formatString("Frame with %.0fk extra script cycles: fitted "
                     "T_ind=%s, N=%.2fM cycles",
                     WorkK, Model->Independent.str().c_str(),
                     Model->Cycles / 1e6));
    std::vector<double> Errors;
    for (const AcmpConfig &C : Chip.spec().allConfigs()) {
      // Sample a spread of levels, not all 17.
      if (C.FreqMHz % 200 != 0 && C.FreqMHz % 150 != 0)
        continue;
      Duration Pred = Model->predict(Chip.effectiveHzFor(C));
      Duration Measured = measureFrameLatency(C, WorkK);
      double Err = std::abs(Pred.secs() - Measured.secs()) /
                   std::max(1e-9, Measured.secs());
      Errors.push_back(Err);
      Table.row()
          .cell(C.str())
          .cell(Pred.millis(), 2)
          .cell(Measured.millis(), 2)
          .percentCell(Err);
    }
    Table.print();
    Json.table("a5", Table);
    double MeanPct = mean(Errors) * 100.0;
    double MaxPct = *std::max_element(Errors.begin(), Errors.end()) * 100.0;
    std::printf("Mean relative error: %.1f%%, max: %.1f%%\n\n", MeanPct,
                MaxPct);
    Json.scalar(formatString("a5.mean_error_pct.%.0fk", WorkK), MeanPct, "%");
    Json.scalar(formatString("a5.max_error_pct.%.0fk", WorkK), MaxPct, "%");
  }
  std::printf("Shape check: the two-point fit predicts all intermediate "
              "configurations within a few percent, validating the "
              "paper's choice of profiling only the extreme "
              "frequencies.\n");
  return true;
}

void a6(const Sessions &S, prof::BenchReport &Json) {
  bench::banner("Ablation A6: recalibration threshold sweep",
                "Sec. 6.2 consecutive-misprediction re-profiling");

  const unsigned Default = GreenWebRuntime::Params{}.RecalibrateAfter;
  for (const char *Name : A6Apps) {
    auto At = [&](unsigned Threshold) -> const ExperimentResult & {
      return S.at(a6Cell(Name, Threshold));
    };
    TablePrinter Table = bench::table(
        {"Threshold", "Energy (mJ)", "Viol-U (%)", "Recalibrations",
         "Profiling frames"},
        formatString("%s, GreenWeb-U", Name));
    for (unsigned Threshold : A6Thresholds) {
      const ExperimentResult &R = At(Threshold);
      std::string Label = Threshold >= A6Never ? std::string("never")
                                               : formatString("%u", Threshold);
      Table.row()
          .cell(Label)
          .cell(R.TotalJoules * 1e3, 1)
          .cell(R.ViolationPctUsable, 2)
          .cell(int64_t(R.RuntimeStats.Recalibrations))
          .cell(int64_t(R.RuntimeStats.ProfilingFrames));
      std::string Key = formatString("%s.%s", Name, Label.c_str());
      Json.scalar("a6.energy_mj." + Key, R.TotalJoules * 1e3, "mJ");
      Json.scalar("a6.violation_u_pct." + Key, R.ViolationPctUsable, "%");
      Json.scalar("a6.profiling_frames." + Key,
                  double(R.RuntimeStats.ProfilingFrames));
    }
    Table.print();
    Json.table("a6", Table);
    std::printf("\n");

    const ExperimentResult &Small = At(A6Thresholds[0]), &Never = At(A6Never),
                           &Def = At(Default);
    bool Dominated = false;
    for (unsigned Threshold : A6Thresholds) {
      const ExperimentResult &R = At(Threshold);
      Dominated |= R.TotalJoules <= Def.TotalJoules &&
                   R.ViolationPctUsable <= Def.ViolationPctUsable &&
                   (R.TotalJoules < Def.TotalJoules ||
                    R.ViolationPctUsable < Def.ViolationPctUsable);
    }
    holds(Json, "a6.small_profiles_more", Name,
          Small.RuntimeStats.ProfilingFrames >
              Never.RuntimeStats.ProfilingFrames);
    holds(Json, "a6.never_violates_more", Name,
          Never.ViolationPctUsable > Def.ViolationPctUsable);
    holds(Json, "a6.default_dominated", Name, Dominated);
  }
  std::printf("Expected shape: small thresholds re-profile more (extra "
              "min-frequency profiling frames); on these surge-prone apps "
              "'never' violates less than the default threshold at no "
              "more energy, so it dominates the default.\n");
}

void a7(const Sessions &S, prof::BenchReport &Json) {
  bench::banner("Ablation A7: GreenWeb vs annotation-free EBS",
                "Sec. 9 related-work comparison (Zhu et al. HPCA'15)");

  TablePrinter Table = bench::table(
      {"Application", "Governor", "Energy (mJ)", "Viol-I (%)", "Viol-U (%)"});

  std::vector<double> EbsOverU;
  for (const char *Name : A7Apps) {
    for (const char *Gov : A7Govs) {
      const ExperimentResult &R = S.at({Name, Gov});
      Table.row()
          .cell(Name)
          .cell(Gov)
          .cell(R.TotalJoules * 1e3, 1)
          .cell(R.ViolationPctImperceptible, 2)
          .cell(R.ViolationPctUsable, 2);
      Json.scalar(formatString("a7.violation_i_pct.%s.%s", Name, Gov),
                  R.ViolationPctImperceptible, "%");
    }
    const ExperimentResult &Ebs = S.at({Name, governors::Ebs}),
                           &GwI = S.at({Name, governors::GreenWebI}),
                           &GwU = S.at({Name, governors::GreenWebU});
    std::string App = Name;
    EbsOverU.push_back(Ebs.TotalJoules / GwU.TotalJoules);
    Json.scalar("a7.ebs_over_gw_u." + App, EbsOverU.back(), "x");
    Json.scalar("a7.ebs_of_gw_i_pct." + App,
                100.0 * Ebs.TotalJoules / GwI.TotalJoules, "%");
    holds(Json, "a7.gw_u_below_ebs", App, GwU.TotalJoules < Ebs.TotalJoules);
    holds(Json, "a7.ebs_violation_i_above_gw_i", App,
          Ebs.ViolationPctImperceptible > GwI.ViolationPctImperceptible);
  }
  Table.print();
  Json.table("a7", Table);
  range(Json, "a7.ebs_over_gw_u", EbsOverU, "x");
  std::printf(
      "\nExpected shape (the paper's Sec. 9 argument, as it manifests "
      "here):\n"
      " * EBS cannot express battery scenarios: it has one operating "
      "point per guessed class, so it uses more energy than GreenWeb-U "
      "on every app, from a little more on CamanJS to several times "
      "more on Goo.ne.jp.\n"
      " * EBS reasons about events, not animation closures: it retires "
      "a tap at its first frame, so Goo.ne.jp's menu animations run "
      "their remaining frames at the idle configuration (the "
      "imperceptible-scenario violations above), where GreenWeb's "
      "Sec. 6.4 frame association keeps optimizing to the end.\n"
      " * Where measured latency and user expectation coincide "
      "(CamanJS: slow and genuinely tolerated; MSN: fast at peak, "
      "where EBS keeps it), EBS and GreenWeb-I converge - annotations "
      "pay off exactly when the two diverge.\n");
}

} // namespace

int main(int Argc, char **Argv) {
  bench::Harness Run("bench_design_suite", Argc, Argv);
  Sessions S;
  runCells(Run, sessionCells(), S);
  std::vector<Cell> Budgets;
  for (const char *App : A2Apps)
    Budgets.push_back(a2Budget(S, App));
  runCells(Run, Budgets, S);

  table1(Run.Json);
  table2(Run.Json);
  autogreen(S, Run.Json);
  a1(S, Run.Json);
  a2(S, Run.Json);
  a3(S, Run.Json);
  a4(S, Run.Json);
  if (!a5(Run.Json))
    return 1;
  a6(S, Run.Json);
  a7(S, Run.Json);
  return 0;
}
