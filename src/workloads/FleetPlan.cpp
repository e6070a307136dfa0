//===- workloads/FleetPlan.cpp - Population run plans ----------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/FleetPlan.h"

#include "faults/FaultPlan.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "telemetry/FleetReport.h"
#include "workloads/Apps.h"

#include <algorithm>

using namespace greenweb;

std::string FleetPlanItem::warmKey() const {
  return App + formatString("#%llu", static_cast<unsigned long long>(Seed));
}

std::string FleetPlanItem::label() const {
  return formatString("%s|%s|s%llu|%s|r%u", App.c_str(), Governor.c_str(),
                      static_cast<unsigned long long>(Seed),
                      Scenario.c_str(), unsigned(Replica));
}

uint64_t FleetPlan::items() const {
  return uint64_t(Apps.size()) * Governors.size() * Seeds.size() *
         Scenarios.size() * Replicas;
}

FleetPlanItem FleetPlan::item(uint64_t Index) const {
  FleetPlanItem It;
  It.Index = Index;
  uint64_t I = Index;
  It.Replica = uint32_t(I % Replicas);
  I /= Replicas;
  It.Scenario = Scenarios[size_t(I % Scenarios.size())];
  I /= Scenarios.size();
  It.Seed = Seeds[size_t(I % Seeds.size())];
  I /= Seeds.size();
  It.Governor = Governors[size_t(I % Governors.size())];
  I /= Governors.size();
  It.App = Apps[size_t(I)];
  return It;
}

ExperimentConfig FleetPlan::config(const FleetPlanItem &Item) const {
  ExperimentConfig C;
  C.AppName = Item.App;
  C.Mode = Mode;
  C.GovernorName = Item.Governor;
  C.Seed = Item.Seed;
  C.MicroRepetitions = MicroRepetitions;
  if (Item.Scenario == "chaos")
    C.Faults = FaultPlan::chaosPlan(Item.faultSeed());
  else if (Item.Scenario != "none")
    C.Faults = FaultPlan::scenario(Item.Scenario, Item.faultSeed());
  C.ModelPath = ModelPath;
  return C;
}

std::string FleetPlan::toJson() const {
  std::string Out;
  json::Writer W(Out);
  auto Names = [&W](const char *Key, const std::vector<std::string> &List) {
    W.key(Key).beginArray();
    for (const std::string &Name : List)
      W.str(Name);
    W.endArray();
  };
  W.beginObject().key("kind").str("fleet_plan").key("name").str(Name);
  W.key("mode").str(Mode == ExperimentMode::Micro ? "micro" : "full");
  Names("apps", Apps);
  Names("governors", Governors);
  W.key("seeds").beginArray();
  for (uint64_t Seed : Seeds)
    W.uinteger(Seed);
  W.endArray();
  Names("scenarios", Scenarios);
  W.key("replicas").uinteger(Replicas);
  W.key("micro_repetitions").uinteger(MicroRepetitions);
  W.key("baseline_governor").str(BaselineGovernor);
  // Written only when set: plans without a model keep the exact JSON
  // (and hash) they had before models existed, so old checkpoints
  // still resume.
  if (!ModelPath.empty())
    W.key("model").str(ModelPath);
  W.endObject();
  return Out;
}

uint64_t FleetPlan::hash() const { return fleetHash(toJson()); }

namespace {

/// Ingest limits of a plan document: a replica or repetition count past
/// these is a typo, not a population.
constexpr uint64_t MaxReplicas = 1'000'000;
constexpr uint64_t MaxMicroRepetitions = 10'000;

} // namespace

bool FleetPlan::parse(const std::string &Text, FleetPlan &Out,
                      std::string *Error) {
  json::Reader R(Text, "plan");
  FleetPlan P;
  P.Name = R.string("name", P.Name);
  std::string Mode = R.string("mode", "micro");
  if (Mode == "full")
    P.Mode = ExperimentMode::Full;
  else if (Mode != "micro")
    R.fail("plan mode must be \"micro\" or \"full\"");
  P.Apps = R.strings("apps");
  P.Governors = R.strings("governors");
  P.Scenarios = R.strings("scenarios", P.Scenarios);
  if (const json::Value *Seeds = R.array("seeds"))
    for (const json::Value &Seed : Seeds->Arr)
      P.Seeds.push_back(R.count(Seed, "seeds"));
  P.Replicas = uint32_t(R.count("replicas", P.Replicas, MaxReplicas));
  P.MicroRepetitions = unsigned(
      R.count("micro_repetitions", P.MicroRepetitions, MaxMicroRepetitions));
  P.BaselineGovernor = R.string(
      "baseline_governor", P.Governors.empty() ? "" : P.Governors.front());
  P.ModelPath = R.string("model");

  if (P.Apps.empty() || P.Governors.empty() || P.Seeds.empty())
    R.fail("plan needs non-empty apps, governors, and seeds");
  if (P.Scenarios.empty() || P.Replicas == 0)
    R.fail("plan needs at least one scenario and one replica");
  // Item indices are counts: the cross product must not pass 2^53.
  uint64_t Items = 1;
  for (uint64_t N : {P.Apps.size(), P.Governors.size(), P.Seeds.size(),
                     P.Scenarios.size(), size_t(P.Replicas)})
    Items = N && Items > json::MaxCount / N ? json::MaxCount + 1 : Items * N;
  if (Items > json::MaxCount)
    R.fail("plan expands to more than 2^53 items");
  std::vector<std::string> KnownApps = allAppNames();
  for (const std::string &App : P.Apps)
    if (std::find(KnownApps.begin(), KnownApps.end(), App) ==
        KnownApps.end())
      R.fail("unknown app '" + App + "'");
  for (const std::string &Gov : P.Governors)
    if (!governors::known(Gov))
      R.fail("unknown governor '" + Gov + "'");
  if (P.ModelPath.empty())
    for (const std::string &Gov : P.Governors)
      if (Gov == governors::PredictiveI || Gov == governors::PredictiveU)
        R.fail("plan lists governor '" + Gov +
               "' but has no \"model\" path");
  std::vector<std::string> KnownScenarios = FaultPlan::scenarioNames();
  for (const std::string &Sc : P.Scenarios)
    if (Sc != "none" && Sc != "chaos" &&
        std::find(KnownScenarios.begin(), KnownScenarios.end(), Sc) ==
            KnownScenarios.end())
      R.fail("unknown fault scenario '" + Sc + "'");
  if (std::find(P.Governors.begin(), P.Governors.end(),
                P.BaselineGovernor) == P.Governors.end())
    R.fail("baseline governor '" + P.BaselineGovernor +
           "' is not in the plan's governor list");
  if (R.ok())
    Out = std::move(P);
  return R.finish(Error);
}
