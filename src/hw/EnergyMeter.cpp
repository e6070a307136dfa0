//===- hw/EnergyMeter.cpp - Energy measurement -------------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "hw/EnergyMeter.h"

#include "faults/FaultInjector.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

using namespace greenweb;

EnergyMeter::EnergyMeter(AcmpChip &Chip) : Chip(Chip), Sim(Chip.simulator()) {
  LastUpdate = Sim.now();
  WindowStart = Sim.now();
  if (Chip.Meter)
    throw std::logic_error("EnergyMeter: chip already has a meter");
  Chip.Meter = this;
}

EnergyMeter::~EnergyMeter() {
  if (Chip.Meter == this)
    Chip.Meter = nullptr;
}

void EnergyMeter::integrate() const {
  Duration Elapsed = Sim.now() - LastUpdate;
  if (Elapsed.isZero())
    return;
  double Joules = Chip.currentPowerWatts() * Elapsed.secs();
  TotalJ += Joules;
  if (Chip.config().Core == CoreKind::Big)
    BigJ += Joules;
  else
    LittleJ += Joules;
  LastUpdate = Sim.now();
}

double EnergyMeter::totalJoules() const {
  integrate();
  return TotalJ;
}

double EnergyMeter::bigJoules() const {
  integrate();
  return BigJ;
}

double EnergyMeter::littleJoules() const {
  integrate();
  return LittleJ;
}

double EnergyMeter::averageWatts() const {
  Duration Window = elapsed();
  if (Window.isZero())
    return 0.0;
  return totalJoules() / Window.secs();
}

Duration EnergyMeter::elapsed() const { return Sim.now() - WindowStart; }

void EnergyMeter::reset() {
  TotalJ = BigJ = LittleJ = 0.0;
  LastUpdate = Sim.now();
  WindowStart = Sim.now();
  Samples.clear();
}

void EnergyMeter::enableSampling(Duration Period) {
  assert(Period > Duration::zero() && "sampling period must be positive");
  SamplePeriod = Period;
  SampleEvent.cancel();
  scheduleNextSample();
}

void EnergyMeter::scheduleNextSample() {
  SampleEvent = Sim.schedule(SamplePeriod, [this] {
    // Sensor faults distort only the observed sample stream; the
    // ground-truth energy integral (integrate()/totalJoules) is what
    // the chip actually drew and stays exact.
    FaultInjector *F = Sim.faultInjector();
    if (F && F->dropMeterSample()) {
      scheduleNextSample();
      return;
    }
    double Watts = Chip.currentPowerWatts();
    if (F)
      Watts = std::max(0.0, Watts + F->meterNoiseWatts());
    Samples.push_back(Watts);
    // DAQ-style co-sampling: each 1 kHz tick also feeds the telemetry
    // stream that backs the power/energy/queue-depth counter tracks.
    if (Telemetry *T = Sim.telemetry(); T && T->enabled())
      T->recordEnergySample(
          {Watts, totalJoules(), int64_t(Sim.pendingEvents())});
    scheduleNextSample();
  });
}

void EnergyMeter::recordSampleNow() {
  if (Telemetry *T = Sim.telemetry(); T && T->enabled())
    T->recordEnergySample({Chip.currentPowerWatts(), totalJoules(),
                           int64_t(Sim.pendingEvents())});
}

double EnergyMeter::sampledJoules() const {
  double Sum = 0.0;
  for (double Watts : Samples)
    Sum += Watts * SamplePeriod.secs();
  return Sum;
}
