//===- faults/FaultPlan.cpp - Deterministic fault schedules ----------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "faults/FaultPlan.h"

#include "support/Json.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <cmath>
#include <cstdio>

using namespace greenweb;

const char *greenweb::faultKindName(FaultKind Kind) {
  switch (Kind) {
  case FaultKind::ThermalThrottle:
    return "thermal_throttle";
  case FaultKind::DvfsFlaky:
    return "dvfs_flaky";
  case FaultKind::MeterNoise:
    return "meter_noise";
  case FaultKind::CallbackSpike:
    return "callback_spike";
  case FaultKind::VsyncJitter:
    return "vsync_jitter";
  case FaultKind::AnnotationMislabel:
    return "annotation_mislabel";
  }
  return "unknown";
}

std::optional<FaultKind> greenweb::faultKindFromName(const std::string &Name) {
  static const FaultKind Kinds[] = {
      FaultKind::ThermalThrottle, FaultKind::DvfsFlaky,
      FaultKind::MeterNoise,      FaultKind::CallbackSpike,
      FaultKind::VsyncJitter,     FaultKind::AnnotationMislabel,
  };
  for (FaultKind Kind : Kinds)
    if (Name == faultKindName(Kind))
      return Kind;
  return std::nullopt;
}

bool greenweb::faultPerturbsQos(FaultKind Kind) {
  return Kind != FaultKind::MeterNoise;
}

std::string FaultSpec::str() const {
  std::string Out = faultKindName(Kind);
  char Buf[96];
  switch (Kind) {
  case FaultKind::ThermalThrottle:
    std::snprintf(Buf, sizeof(Buf), " cap=%uMHz", CapMHz);
    break;
  case FaultKind::DvfsFlaky:
    std::snprintf(Buf, sizeof(Buf), " fail=%.2f delay=%.0fus", FailProb,
                  ExtraDelay.micros());
    break;
  case FaultKind::MeterNoise:
    std::snprintf(Buf, sizeof(Buf), " drop=%.2f sigma=%.2fW", DropProb,
                  SigmaWatts);
    break;
  case FaultKind::CallbackSpike:
    std::snprintf(Buf, sizeof(Buf), " p=%.2f x%.1f", SpikeProb, SpikeScale);
    break;
  case FaultKind::VsyncJitter:
    std::snprintf(Buf, sizeof(Buf), " jitter<=%.1fms drop=%.2f",
                  JitterMax.millis(), DropProb);
    break;
  case FaultKind::AnnotationMislabel:
    std::snprintf(Buf, sizeof(Buf), " p=%.2f scale=%.2f%s", MislabelProb,
                  TargetScale, FlipType ? " flip" : "");
    break;
  }
  Out += Buf;
  return Out;
}

bool FaultPlan::hasKind(FaultKind Kind) const {
  for (const FaultSpec &S : Faults)
    if (S.Kind == Kind)
      return true;
  return false;
}

std::string FaultPlan::toJson() const {
  std::string Out;
  json::Writer W(Out);
  W.beginObject().key("seed").uinteger(Seed).key("faults").beginArray();
  for (const FaultSpec &S : Faults) {
    W.beginObject().key("kind").str(faultKindName(S.Kind));
    // Fields at their default are omitted. Numbers use the shortest
    // text that parses back exactly, so toJson -> fromJson round-trips
    // and equal plans serialize to byte-equal text.
    auto Field = [&W](const char *Name, double V, double Default) {
      if (V != Default)
        W.key(Name).shortest(V);
    };
    Field("start_ms", S.Start.millis(), 0.0);
    Field("duration_ms", S.Length.millis(), 0.0);
    Field("cap_mhz", double(S.CapMHz), 0.0);
    Field("fail_prob", S.FailProb, 0.0);
    Field("extra_delay_us", S.ExtraDelay.micros(), 0.0);
    Field("drop_prob", S.DropProb, 0.0);
    Field("sigma_watts", S.SigmaWatts, 0.0);
    Field("spike_prob", S.SpikeProb, 0.0);
    Field("spike_scale", S.SpikeScale, 1.0);
    Field("jitter_ms", S.JitterMax.millis(), 0.0);
    Field("mislabel_prob", S.MislabelProb, 0.0);
    Field("target_scale", S.TargetScale, 1.0);
    if (S.FlipType)
      W.key("flip_type").boolean(true);
    W.endObject();
  }
  W.endArray().endObject();
  return Out;
}

namespace {

/// Ingest limits of a fault plan. Times stay far inside the int64
/// nanoseconds of Duration; a probability is a probability.
constexpr uint64_t MaxCapMHz = 100'000;
constexpr double MaxWindowMs = 1e9; ///< Also the largest extra_delay_us.
constexpr double MaxFactor = 1e6; ///< Scales and watts.

} // namespace

std::optional<FaultPlan> FaultPlan::fromJson(const std::string &Text,
                                             std::string *Error) {
  json::Reader R(Text, "fault plan");
  FaultPlan Plan;
  Plan.Seed = R.count("seed", 1);
  const json::Value *Faults = R.array("faults");
  for (size_t I = 0; Faults && I < Faults->Arr.size(); ++I) {
    json::Reader F = R.child(Faults->Arr[I], formatString("fault %zu", I));
    FaultSpec S;
    std::string KindName = F.string("kind");
    if (std::optional<FaultKind> Kind = faultKindFromName(KindName))
      S.Kind = *Kind;
    else
      F.fail("unknown fault kind \"" + KindName + "\"");
    auto Prob = [&F](const char *Key) {
      return F.number(Key, 0.0, 0.0, 1.0);
    };
    auto Ms = [&F](const char *Key) {
      return Duration::fromMillis(F.number(Key, 0.0, 0.0, MaxWindowMs));
    };
    S.Start = Ms("start_ms");
    S.Length = Ms("duration_ms");
    S.CapMHz = unsigned(F.count("cap_mhz", 0, MaxCapMHz));
    S.FailProb = Prob("fail_prob");
    S.ExtraDelay = Duration::nanoseconds(
        int64_t(F.number("extra_delay_us", 0.0, 0.0, MaxWindowMs) * 1e3));
    S.DropProb = Prob("drop_prob");
    S.SigmaWatts = F.number("sigma_watts", 0.0, 0.0, MaxFactor);
    S.SpikeProb = Prob("spike_prob");
    S.SpikeScale = F.number("spike_scale", 1.0, 0.0, MaxFactor);
    S.JitterMax = Ms("jitter_ms");
    S.MislabelProb = Prob("mislabel_prob");
    S.TargetScale = F.number("target_scale", 1.0, 0.0, MaxFactor);
    S.FlipType = F.boolean("flip_type", false);
    if (S.Kind == FaultKind::ThermalThrottle && S.CapMHz == 0)
      F.fail("thermal_throttle needs cap_mhz > 0");
    Plan.Faults.push_back(S);
  }
  if (!R.finish(Error))
    return std::nullopt;
  return Plan;
}

namespace {

FaultSpec thermalSpec() {
  FaultSpec S;
  S.Kind = FaultKind::ThermalThrottle;
  S.Start = Duration::seconds(2);
  S.Length = Duration::seconds(12);
  S.CapMHz = 1000;
  return S;
}

FaultSpec dvfsSpec() {
  FaultSpec S;
  S.Kind = FaultKind::DvfsFlaky;
  S.Start = Duration::seconds(1);
  S.FailProb = 0.35;
  S.ExtraDelay = Duration::microseconds(400);
  return S;
}

FaultSpec spikeSpec() {
  FaultSpec S;
  S.Kind = FaultKind::CallbackSpike;
  S.Start = Duration::seconds(1);
  S.SpikeProb = 0.45;
  S.SpikeScale = 8.0;
  return S;
}

FaultSpec vsyncSpec() {
  FaultSpec S;
  S.Kind = FaultKind::VsyncJitter;
  S.Start = Duration::seconds(1);
  // Jitter-dominant on purpose: a jittered tick is late by less than
  // one interval, so faster processing can still make the target — the
  // scenario probes the governor's headroom. Dropped ticks cost a full
  // 16.6 ms quantum that no configuration can buy back, so they stay
  // rare (they punish every governor equally).
  S.JitterMax = Duration::milliseconds(12);
  S.DropProb = 0.08;
  return S;
}

FaultSpec mislabelSpec() {
  FaultSpec S;
  S.Kind = FaultKind::AnnotationMislabel;
  S.MislabelProb = 0.7;
  S.TargetScale = 0.25;
  return S;
}

FaultSpec noiseSpec() {
  FaultSpec S;
  S.Kind = FaultKind::MeterNoise;
  S.Start = Duration::milliseconds(500);
  S.DropProb = 0.3;
  S.SigmaWatts = 0.5;
  return S;
}

} // namespace

std::optional<FaultPlan> FaultPlan::scenario(const std::string &Name,
                                             uint64_t Seed) {
  FaultPlan Plan;
  Plan.Seed = Seed;
  if (Name == "thermal") {
    Plan.Faults = {thermalSpec()};
  } else if (Name == "dvfs") {
    Plan.Faults = {dvfsSpec()};
  } else if (Name == "spikes") {
    Plan.Faults = {spikeSpec()};
  } else if (Name == "vsync") {
    Plan.Faults = {vsyncSpec()};
  } else if (Name == "mislabel") {
    Plan.Faults = {mislabelSpec()};
  } else if (Name == "noise") {
    // Pure sensor noise is QoS-neutral by construction; pair it with a
    // milder spike fault so the scenario still exercises the defense
    // path while the meter stream is distorted.
    FaultSpec Spike = spikeSpec();
    Spike.SpikeProb = 0.35;
    Spike.SpikeScale = 6.0;
    Plan.Faults = {noiseSpec(), Spike};
  } else if (Name == "mixed") {
    Plan.Faults = {thermalSpec(), dvfsSpec(), spikeSpec(), vsyncSpec(),
                   noiseSpec()};
  } else {
    return std::nullopt;
  }
  return Plan;
}

std::vector<std::string> FaultPlan::scenarioNames() {
  return {"thermal", "dvfs", "spikes", "vsync", "mislabel", "noise", "mixed"};
}

FaultPlan FaultPlan::chaosPlan(uint64_t Seed) {
  Rng R(Seed ^ 0xC4A05C4A05ull);
  FaultPlan Plan;
  Plan.Seed = Seed;

  auto randomWindow = [&](FaultSpec &S) {
    S.Start = Duration::fromMillis(double(R.uniformInt(0, 4000)));
    // Half the windows run to the end of the run; the rest are finite.
    S.Length = R.chance(0.5)
                   ? Duration::zero()
                   : Duration::fromMillis(double(R.uniformInt(2000, 10000)));
  };

  // Always include at least one QoS-perturbing family so the soak run
  // exercises the watchdog, then add 1-3 extra random specs.
  static const FaultKind Perturbing[] = {
      FaultKind::ThermalThrottle, FaultKind::DvfsFlaky,
      FaultKind::CallbackSpike, FaultKind::VsyncJitter,
      FaultKind::AnnotationMislabel};
  static const FaultKind All[] = {
      FaultKind::ThermalThrottle, FaultKind::DvfsFlaky,
      FaultKind::MeterNoise,      FaultKind::CallbackSpike,
      FaultKind::VsyncJitter,     FaultKind::AnnotationMislabel};

  auto makeSpec = [&](FaultKind Kind) {
    FaultSpec S;
    S.Kind = Kind;
    randomWindow(S);
    switch (Kind) {
    case FaultKind::ThermalThrottle:
      S.CapMHz = R.chance(0.5) ? 1000 : 1400;
      break;
    case FaultKind::DvfsFlaky:
      S.FailProb = R.uniform(0.1, 0.6);
      S.ExtraDelay = Duration::microseconds(R.uniformInt(100, 900));
      break;
    case FaultKind::MeterNoise:
      S.DropProb = R.uniform(0.1, 0.5);
      S.SigmaWatts = R.uniform(0.1, 1.0);
      break;
    case FaultKind::CallbackSpike:
      S.SpikeProb = R.uniform(0.2, 0.6);
      S.SpikeScale = R.uniform(3.0, 12.0);
      break;
    case FaultKind::VsyncJitter:
      S.JitterMax = Duration::fromMillis(R.uniform(2.0, 12.0));
      S.DropProb = R.uniform(0.1, 0.4);
      break;
    case FaultKind::AnnotationMislabel:
      S.MislabelProb = R.uniform(0.3, 0.9);
      S.TargetScale = R.uniform(0.1, 0.8);
      S.FlipType = R.chance(0.3);
      break;
    }
    return S;
  };

  Plan.Faults.push_back(makeSpec(
      Perturbing[size_t(R.uniformInt(0, int64_t(std::size(Perturbing)) - 1))]));
  int64_t Extra = R.uniformInt(1, 3);
  for (int64_t I = 0; I < Extra; ++I) {
    FaultSpec S =
        makeSpec(All[size_t(R.uniformInt(0, int64_t(std::size(All)) - 1))]);
    // Avoid duplicate families; duplicates make severity ambiguous.
    if (!Plan.hasKind(S.Kind))
      Plan.Faults.push_back(S);
  }
  return Plan;
}
