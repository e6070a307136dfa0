//===- hw/AcmpChip.cpp - ACMP chip runtime model ---------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "hw/AcmpChip.h"

#include "faults/FaultInjector.h"
#include "hw/EnergyMeter.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <iterator>

using namespace greenweb;

AcmpChip::AcmpChip(Simulator &Sim, AcmpSpec SpecIn)
    : Sim(Sim), Spec(std::move(SpecIn)), Power(Spec) {
  for (const AcmpConfig &C : Spec.allConfigs())
    Points.push_back({C, effectiveHzFor(C),
                      Power.clusterPower(C.Core, C.FreqMHz, 1)});
  // Boot on the little cluster at its lowest level, the idle state a
  // governor would leave the chip in.
  Config = Spec.minConfig();
  cacheConfigState();
  LastChange = Sim.now();
}

void AcmpChip::cacheConfigState() {
  ConfigHz = effectiveHzFor(Config);
  for (unsigned Busy = 0; Busy < std::size(PowerByBusy); ++Busy)
    PowerByBusy[Busy] = Power.clusterPower(Config.Core, Config.FreqMHz, Busy);
  ConfigSlot = nullptr;
}

void AcmpChip::accountInterval() {
  if (Meter)
    Meter->integrate();
  for (const auto &Listener : PreChangeListeners)
    Listener();
  Duration Elapsed = Sim.now() - LastChange;
  if (!Elapsed.isZero()) {
    if (!ConfigSlot)
      ConfigSlot = &ConfigTime[Config];
    *ConfigSlot += Elapsed;
  }
  LastChange = Sim.now();
}

AcmpConfig AcmpChip::clampToThermalCap(AcmpConfig C) const {
  FaultInjector *F = Sim.faultInjector();
  if (!F || C.Core != CoreKind::Big)
    return C;
  unsigned Cap = F->thermalCapMHz();
  if (Cap == 0 || C.FreqMHz <= Cap)
    return C;
  // Highest big-cluster ladder level at or below the cap; when the cap
  // sits below the whole ladder, the floor level is the best we can do.
  const ClusterSpec &Cluster = Spec.cluster(C.Core);
  unsigned Best = Cluster.FreqsMHz.front();
  for (unsigned Freq : Cluster.FreqsMHz)
    if (Freq <= Cap)
      Best = Freq;
  C.FreqMHz = Best;
  return C;
}

void AcmpChip::enforceThermalCap() { setConfig(Config); }

bool AcmpChip::setConfig(AcmpConfig NewConfig) {
  assert(Spec.isValid(NewConfig) && "invalid ACMP configuration");
  AcmpConfig Requested = NewConfig;
  NewConfig = clampToThermalCap(NewConfig);
  if (NewConfig != Requested)
    Sim.faultInjector()->noteThermalClamp(Requested.FreqMHz, NewConfig.FreqMHz);
  if (NewConfig == Config)
    return false;

  Duration FaultDelay = Duration::zero();
  if (FaultInjector *F = Sim.faultInjector())
    if (F->sampleDvfsTransition(FaultDelay) ==
        FaultInjector::DvfsOutcome::Fail)
      return false;

  accountInterval();

  bool Migrated = NewConfig.Core != Config.Core;
  bool FreqChanged = NewConfig.FreqMHz != Config.FreqMHz;
  Duration Penalty = FaultDelay;
  if (Migrated) {
    ++MigrationCount;
    Penalty += Spec.MigrationPenalty;
  }
  if (FreqChanged) {
    ++FreqSwitchCount;
    Penalty += Spec.FreqSwitchPenalty;
  }

  if (Telemetry *T = Sim.telemetry(); T && T->enabled())
    T->recordConfigSwitch({Config.str(), NewConfig.str(),
                           NewConfig.Core == CoreKind::Big ? 1 : 0,
                           int64_t(NewConfig.FreqMHz),
                           FreqChanged ? 1 : 0, Migrated ? 1 : 0,
                           Penalty.micros()});

  Config = NewConfig;
  cacheConfigState();
  // The stall models the period during which no instructions retire;
  // replanning reprices remaining work at the new effective speed.
  if (!Penalty.isZero())
    stallAttachedThreads(Penalty);
  replanAttachedThreads();
  return true;
}

bool AcmpChip::setFrequency(unsigned FreqMHz) {
  return setConfig({Config.Core, FreqMHz});
}

bool AcmpChip::stepFrequency(int Levels) {
  const ClusterSpec &Cluster = Spec.cluster(Config.Core);
  int Index = Cluster.freqIndex(Config.FreqMHz);
  assert(Index >= 0 && "current frequency not in spec");
  int Target = std::clamp(Index + Levels, 0,
                          int(Cluster.FreqsMHz.size()) - 1);
  if (Target == Index)
    return false;
  return setFrequency(Cluster.FreqsMHz[size_t(Target)]);
}

double AcmpChip::effectiveHz(unsigned /*ThreadId*/) const {
  return ConfigHz;
}

double AcmpChip::effectiveHzFor(const AcmpConfig &C) const {
  const ClusterSpec &Cluster = Spec.cluster(C.Core);
  return double(C.FreqMHz) * 1e6 * Cluster.Ipc;
}

void AcmpChip::onThreadActivity(unsigned /*ThreadId*/, bool Busy) {
  accountInterval();
  if (Busy) {
    ++BusyCount;
    return;
  }
  assert(BusyCount > 0 && "idle notification without matching busy");
  --BusyCount;
}

double AcmpChip::currentPowerWatts() const {
  if (BusyCount < std::size(PowerByBusy))
    return PowerByBusy[BusyCount];
  return Power.clusterPower(Config.Core, Config.FreqMHz, BusyCount);
}

void AcmpChip::addPreChangeListener(std::function<void()> Listener) {
  assert(Listener && "null chip listener");
  PreChangeListeners.push_back(std::move(Listener));
}

std::map<AcmpConfig, Duration> AcmpChip::configTimeDistribution() const {
  std::map<AcmpConfig, Duration> Dist = ConfigTime;
  Dist[Config] += Sim.now() - LastChange;
  return Dist;
}

void AcmpChip::resetStats() {
  accountInterval();
  ConfigTime.clear();
  ConfigSlot = nullptr;
  FreqSwitchCount = 0;
  MigrationCount = 0;
}
