//===- telemetry/AnomalyDetector.cpp - Online change-point alerts ----------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/AnomalyDetector.h"

#include <algorithm>
#include <cmath>

using namespace greenweb;

EwmaCusum::Step EwmaCusum::observe(double X) {
  Step S;
  ++N;
  if (N == 1) {
    Mean = X;
    Dev = 0.0;
    SinceAlert = Cfg.CooldownSamples; // The first alert needs no cooldown.
    return S;
  }
  double Residual = X - Mean;
  if (N <= Cfg.WarmupSamples) {
    // Baseline seeding: adapt, never alert.
    Mean += Cfg.Alpha * Residual;
    Dev += Cfg.Alpha * (std::fabs(Residual) - Dev);
    ++SinceAlert;
    return S;
  }
  double Sigma = std::max(Dev, 1e-9);
  double Z = Residual / Sigma;
  Pos = std::max(0.0, Pos + Z - Cfg.CusumK);
  Neg = std::max(0.0, Neg - Z - Cfg.CusumK);
  ++SinceAlert;
  if ((Pos > Cfg.CusumH || Neg > Cfg.CusumH) &&
      SinceAlert > Cfg.CooldownSamples) {
    S.Fired = true;
    S.Dir = Pos > Cfg.CusumH ? 1 : -1;
    S.Score = S.Dir > 0 ? Pos : Neg;
    // Restart the statistic and re-seed the baseline at the new level,
    // so one sustained shift produces one alert, not a burst.
    Pos = Neg = 0.0;
    SinceAlert = 0;
    Mean = X;
    Dev = std::max(Dev, 1e-9);
    return S;
  }
  Mean += Cfg.Alpha * Residual;
  Dev += Cfg.Alpha * (std::fabs(Residual) - Dev);
  return S;
}

size_t TrailingWindow::add(int64_t Ts, int64_t WindowNs) {
  size_t Mask = Ring.size() - 1;
  while (Count > 0 && Ring[Head] < Ts - WindowNs) {
    Head = (Head + 1) & Mask;
    --Count;
  }
  if (Count == Ring.size()) {
    // Full: unroll into a ring twice the size, oldest first.
    std::vector<int64_t> Grown(std::max<size_t>(8, 2 * Ring.size()));
    for (size_t I = 0; I < Count; ++I)
      Grown[I] = Ring[(Head + I) & Mask];
    Ring = std::move(Grown);
    Head = 0;
    Mask = Ring.size() - 1;
  }
  Ring[(Head + Count) & Mask] = Ts;
  return ++Count;
}

DetectorBank::DetectorBank(const DetectorConfig &C)
    : Cfg(C), FrameLatency(C), EnergyPerFrame(C), DecisionChurn(C) {}

void DetectorBank::score(const char *Detector, EwmaCusum &D, double X,
                         const TelemetryRecord &Origin,
                         std::vector<TelemetryRecord> &Out) {
  double BaselineMean = D.mean();
  EwmaCusum::Step S = D.observe(X);
  if (!S.Fired)
    return;
  ++Alerts;
  // Timestamped with the provoking record's virtual time, never a clock.
  Out.emplace_back(Origin.Ts,
                   AlertRecord{Detector, X, BaselineMean, S.Score, S.Dir,
                               int64_t(D.samples())});
}

std::vector<TelemetryRecord>
DetectorBank::onRecord(const TelemetryRecord &R) {
  std::vector<TelemetryRecord> Out;
  switch (R.Kind) {
  case TelemetryEventKind::FrameStage: {
    const FrameStageRecord &F = R.as<FrameStageRecord>();
    if (F.Stage == "present")
      ++FramesPresented;
    else if (F.Stage == "total")
      // Score the canonical (serialized) value so replaying the log
      // through the same detector reproduces the alert stream exactly.
      score("frame_latency", FrameLatency,
            telemetryCanonicalNumber(F.DurationMs), R, Out);
    break;
  }
  case TelemetryEventKind::EnergySample: {
    // The energy accumulator is a free-running double that loses
    // precision in JSONL serialization; canonicalize before the delta
    // so online and offline detection see identical inputs.
    double Joules = telemetryCanonicalNumber(
        R.as<EnergySampleRecord>().CumulativeJoules);
    if (LastJoules >= 0.0 && FramesPresented > FramesAtLastSample) {
      double PerFrameMj = (Joules - LastJoules) * 1e3 /
                          double(FramesPresented - FramesAtLastSample);
      score("energy_per_frame", EnergyPerFrame, PerFrameMj, R, Out);
    }
    LastJoules = Joules;
    FramesAtLastSample = FramesPresented;
    break;
  }
  case TelemetryEventKind::GovernorDecision: {
    size_t InWindow =
        Decisions.add(R.Ts.nanos(), int64_t(Cfg.ChurnWindowMs * 1e6));
    score("decision_churn", DecisionChurn, double(InWindow), R, Out);
    break;
  }
  default:
    break;
  }
  return Out;
}
