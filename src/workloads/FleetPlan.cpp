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

bool stringList(const json::Value &Doc, const char *Key,
                std::vector<std::string> &Out, std::string *Error) {
  const json::Value *V = Doc.get(Key);
  if (!V)
    return true; // Optional; caller applies defaults.
  if (!V->isArray()) {
    if (Error)
      *Error = formatString("plan field '%s' is not an array", Key);
    return false;
  }
  Out.clear();
  for (const json::Value &E : V->Arr) {
    if (!E.isString()) {
      if (Error)
        *Error = formatString("plan field '%s' holds a non-string", Key);
      return false;
    }
    Out.push_back(E.Str);
  }
  return true;
}

} // namespace

bool FleetPlan::parse(const std::string &Text, FleetPlan &Out,
                      std::string *Error) {
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  std::string ParseError;
  auto Doc = json::parse(Text, &ParseError);
  if (!Doc || !Doc->isObject())
    return Fail("plan is not a JSON object" +
                (ParseError.empty() ? "" : " (" + ParseError + ")"));

  FleetPlan P;
  P.Name = Doc->stringOr("name", "fleet");
  std::string Mode = Doc->stringOr("mode", "micro");
  if (Mode == "micro")
    P.Mode = ExperimentMode::Micro;
  else if (Mode == "full")
    P.Mode = ExperimentMode::Full;
  else
    return Fail("plan mode must be \"micro\" or \"full\"");

  if (!stringList(*Doc, "apps", P.Apps, Error) ||
      !stringList(*Doc, "governors", P.Governors, Error) ||
      !stringList(*Doc, "scenarios", P.Scenarios, Error))
    return false;
  if (const json::Value *V = Doc->get("seeds")) {
    if (!V->isArray())
      return Fail("plan field 'seeds' is not an array");
    P.Seeds.clear();
    for (const json::Value &E : V->Arr) {
      if (!E.isNumber())
        return Fail("plan field 'seeds' holds a non-number");
      P.Seeds.push_back(uint64_t(E.Num));
    }
  }
  P.Replicas = uint32_t(Doc->numberOr("replicas", 1));
  P.MicroRepetitions = unsigned(Doc->numberOr("micro_repetitions", 8));
  P.BaselineGovernor = Doc->stringOr(
      "baseline_governor", P.Governors.empty() ? "" : P.Governors.front());
  P.ModelPath = Doc->stringOr("model", "");

  if (P.Apps.empty() || P.Governors.empty() || P.Seeds.empty())
    return Fail("plan needs non-empty apps, governors, and seeds");
  if (P.Scenarios.empty() || P.Replicas == 0)
    return Fail("plan needs at least one scenario and one replica");

  std::vector<std::string> KnownApps = allAppNames();
  for (const std::string &App : P.Apps)
    if (std::find(KnownApps.begin(), KnownApps.end(), App) ==
        KnownApps.end())
      return Fail("unknown app '" + App + "'");
  for (const std::string &Gov : P.Governors)
    if (Gov != governors::Perf && Gov != governors::Interactive &&
        Gov != governors::Ondemand && Gov != governors::Powersave &&
        Gov != governors::Ebs && Gov != governors::GreenWebI &&
        Gov != governors::GreenWebU && Gov != governors::PredictiveI &&
        Gov != governors::PredictiveU)
      return Fail("unknown governor '" + Gov + "'");
  if (P.ModelPath.empty())
    for (const std::string &Gov : P.Governors)
      if (Gov == governors::PredictiveI || Gov == governors::PredictiveU)
        return Fail("plan lists governor '" + Gov +
                    "' but has no \"model\" path");
  std::vector<std::string> KnownScenarios = FaultPlan::scenarioNames();
  for (const std::string &Sc : P.Scenarios)
    if (Sc != "none" && Sc != "chaos" &&
        std::find(KnownScenarios.begin(), KnownScenarios.end(), Sc) ==
            KnownScenarios.end())
      return Fail("unknown fault scenario '" + Sc + "'");
  if (std::find(P.Governors.begin(), P.Governors.end(),
                P.BaselineGovernor) == P.Governors.end())
    return Fail("baseline governor '" + P.BaselineGovernor +
                "' is not in the plan's governor list");
  Out = std::move(P);
  return true;
}
