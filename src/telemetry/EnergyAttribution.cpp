//===- telemetry/EnergyAttribution.cpp - Joules per annotation -------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/EnergyAttribution.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <map>
#include <set>

using namespace greenweb;

namespace {

/// An input event's lifetime window.
struct RootWindow {
  int64_t Root = 0;
  double BeginUs = 0.0;
  double EndUs = 0.0;
  std::string Name; ///< "input:<type>" — the fallback annotation key.
};

} // namespace

EnergyAttributionResult greenweb::attributeEnergy(const TelemetryLog &Log) {
  EnergyAttributionResult Result;

  // Root lifetimes from the span records; annotation keys and violation
  // counts from the governor's records.
  std::vector<RootWindow> Roots;
  std::map<int64_t, std::string> KeyByRoot;
  std::map<int64_t, uint64_t> ViolationsByRoot;
  std::vector<std::pair<double, double>> Samples; // (ts_us, cumulative J)
  auto noteKey = [&KeyByRoot](int64_t Root, const std::string &Key) {
    if (Root != 0 && !Key.empty())
      KeyByRoot.emplace(Root, Key);
  };
  for (const TelemetryRecord &R : Log.records()) {
    switch (R.Kind) {
    case TelemetryEventKind::Span: {
      const CompletedSpanRecord &S = R.as<CompletedSpanRecord>();
      if (S.Thread != "inputs" || S.Root == 0)
        break;
      Roots.push_back(
          {S.Root, S.BeginUs, S.BeginUs + S.DurMs * 1e3, S.Name});
      break;
    }
    case TelemetryEventKind::GovernorDecision: {
      const GovernorDecisionRecord &D = R.as<GovernorDecisionRecord>();
      noteKey(D.RootId, D.ModelKey);
      break;
    }
    case TelemetryEventKind::QosViolation: {
      const QosViolationRecord &V = R.as<QosViolationRecord>();
      ++ViolationsByRoot[V.RootId];
      noteKey(V.RootId, V.ModelKey);
      break;
    }
    case TelemetryEventKind::EnergySample:
      Samples.emplace_back(R.Ts.nanos() / 1e3,
                           R.as<EnergySampleRecord>().CumulativeJoules);
      break;
    default:
      break;
    }
  }
  Result.Samples = Samples.size();

  auto keyOfRoot = [&](int64_t Root, const std::string &Fallback) {
    auto It = KeyByRoot.find(Root);
    return It == KeyByRoot.end() ? Fallback : It->second;
  };

  std::map<std::string, AnnotationEnergy> ByKey;
  std::map<std::string, std::set<int64_t>> RootsOfKey;
  double Unattributed = 0.0;

  // Walk sample intervals and split each delta by overlap. The first
  // sample's interval is reconstructed from the sampling period (the
  // gap to the second sample); a negative delta means the meter was
  // reset mid-run, so the cumulative counter restarted from zero.
  for (size_t I = 0; I < Samples.size(); ++I) {
    double B = Samples[I].first;
    double A;
    if (I > 0)
      A = Samples[I - 1].first;
    else if (Samples.size() > 1)
      A = B - (Samples[1].first - Samples[0].first);
    else
      A = B;
    double Delta = I > 0 ? Samples[I].second - Samples[I - 1].second
                         : Samples[I].second;
    if (Delta < 0.0)
      Delta = Samples[I].second;
    if (Delta <= 0.0)
      continue;
    Result.TotalJoules += Delta;

    double TotalOverlap = 0.0;
    for (const RootWindow &W : Roots)
      TotalOverlap +=
          std::max(0.0, std::min(B, W.EndUs) - std::max(A, W.BeginUs));
    if (TotalOverlap <= 0.0) {
      Unattributed += Delta;
      continue;
    }
    for (const RootWindow &W : Roots) {
      double Overlap =
          std::max(0.0, std::min(B, W.EndUs) - std::max(A, W.BeginUs));
      if (Overlap <= 0.0)
        continue;
      std::string Key = keyOfRoot(W.Root, W.Name);
      AnnotationEnergy &Row = ByKey[Key];
      Row.Key = Key;
      Row.Joules += Delta * (Overlap / TotalOverlap);
      RootsOfKey[Key].insert(W.Root);
    }
  }

  // Violations roll up by the same key resolution, through the root's
  // window name when the violation itself carries no key.
  std::map<int64_t, std::string> NameByRoot;
  for (const RootWindow &W : Roots)
    if (!NameByRoot.count(W.Root))
      NameByRoot[W.Root] = W.Name;
  for (const auto &[Root, Count] : ViolationsByRoot) {
    auto NameIt = NameByRoot.find(Root);
    std::string Key = keyOfRoot(
        Root, NameIt == NameByRoot.end() ? "(unknown)" : NameIt->second);
    AnnotationEnergy &Row = ByKey[Key];
    Row.Key = Key;
    Row.Violations += Count;
  }

  for (auto &[Key, Row] : ByKey) {
    Row.Roots = RootsOfKey[Key].size();
    Result.Rows.push_back(Row);
  }
  if (Unattributed > 0.0) {
    AnnotationEnergy Row;
    Row.Key = unattributedEnergyKey();
    Row.Joules = Unattributed;
    Result.Rows.push_back(Row);
  }
  Result.AttributedJoules = Result.TotalJoules - Unattributed;

  std::sort(Result.Rows.begin(), Result.Rows.end(),
            [](const AnnotationEnergy &X, const AnnotationEnergy &Y) {
              if (X.Joules != Y.Joules)
                return X.Joules > Y.Joules;
              return X.Key < Y.Key;
            });
  return Result;
}

std::string greenweb::formatEnergyTable(const EnergyAttributionResult &Result,
                                        size_t N) {
  std::string Out = formatString("%-44s %12s %8s %7s %11s\n", "annotation",
                                 "energy (mJ)", "share", "events",
                                 "violations");
  size_t Shown = 0;
  for (const AnnotationEnergy &Row : Result.Rows) {
    if (N != 0 && Shown++ >= N)
      break;
    double Share = Result.TotalJoules > 0.0
                       ? 100.0 * Row.Joules / Result.TotalJoules
                       : 0.0;
    Out += formatString("%-44s %12.2f %7.1f%% %7llu %11llu\n",
                        Row.Key.c_str(), Row.Joules * 1e3, Share,
                        static_cast<unsigned long long>(Row.Roots),
                        static_cast<unsigned long long>(Row.Violations));
  }
  Out += formatString("%-44s %12.2f %7.1f%%\n", "total",
                      Result.TotalJoules * 1e3, 100.0);
  return Out;
}
