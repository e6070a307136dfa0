//===- greenweb/PerfModel.cpp - DVFS performance/energy model ------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "greenweb/PerfModel.h"

#include <algorithm>
#include <cmath>

using namespace greenweb;

Duration DvfsModel::predict(double EffectiveHz) const {
  return Independent + Duration::fromSeconds(Cycles / EffectiveHz);
}

std::optional<DvfsModel>
greenweb::fitDvfsModel(const AcmpChip &Chip, const LatencyObservation &AtMax,
                       const LatencyObservation &AtMin) {
  double HzMax = Chip.effectiveHzFor(AtMax.Config);
  double HzMin = Chip.effectiveHzFor(AtMin.Config);
  if (HzMax == HzMin)
    return std::nullopt;

  // T1 = Tind + N/HzMax ; T2 = Tind + N/HzMin.
  double T1 = AtMax.Latency.secs();
  double T2 = AtMin.Latency.secs();
  double N = (T2 - T1) / (1.0 / HzMin - 1.0 / HzMax);
  N = std::max(0.0, N);
  double Tind = std::max(0.0, T1 - N / HzMax);

  DvfsModel Model;
  Model.Independent = Duration::fromSeconds(Tind);
  Model.Cycles = N;
  return Model;
}

ConfigChoice greenweb::chooseMinEnergyConfig(const AcmpChip &Chip,
                                             const DvfsModel &Model,
                                             Duration Target,
                                             double SafetyMargin) {
  const PowerModel &Power = Chip.powerModel();
  Duration Budget = Target * SafetyMargin;

  std::optional<ConfigChoice> Best;
  for (const AcmpChip::ConfigPoint &Point : Chip.configPoints()) {
    Duration Pred = Model.predict(Point.Hz);
    // Per-frame energy with one core active for the frame's duration;
    // this mirrors the paper's E = P(c, f) * T_pred sweep.
    double Joules = Point.OneCoreWatts * Pred.secs();
    if (Pred > Budget)
      continue;
    if (!Best || Joules < Best->PredictedJoules)
      Best = ConfigChoice{Point.Config, Pred, Joules, true};
  }
  if (Best)
    return *Best;

  // Nothing meets the target: run flat out.
  AcmpConfig Max = Chip.spec().maxConfig();
  Duration Pred = Model.predict(Chip.effectiveHzFor(Max));
  double Joules = Power.clusterPower(Max.Core, Max.FreqMHz, 1) * Pred.secs();
  return {Max, Pred, Joules, false};
}
