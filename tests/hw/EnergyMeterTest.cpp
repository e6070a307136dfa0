//===- tests/hw/EnergyMeterTest.cpp - energy metering tests -------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "hw/EnergyMeter.h"

#include <stdexcept>

#include <gtest/gtest.h>

using namespace greenweb;

TEST(EnergyMeterTest, IdleEnergyMatchesLeakage) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  EnergyMeter Meter(Chip);
  Sim.schedule(Duration::seconds(10), [] {});
  Sim.run();
  double Expected =
      Chip.powerModel().idlePower(CoreKind::Little) * 10.0;
  EXPECT_NEAR(Meter.totalJoules(), Expected, 1e-9);
  EXPECT_NEAR(Meter.littleJoules(), Expected, 1e-9);
  EXPECT_DOUBLE_EQ(Meter.bigJoules(), 0.0);
}

TEST(EnergyMeterTest, BusyIntervalIntegrated) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  Chip.setConfig({CoreKind::Big, 1800});
  EnergyMeter Meter(Chip);
  SimThread Thread(Sim, Chip, "t", 0);
  // 2.88e9 eff-cycles = 1s busy at big-1800.
  SimTask T;
  T.Cost.Cycles = Chip.effectiveHzFor(Chip.config());
  Thread.post(std::move(T));
  Sim.run();
  double BusyP = Chip.powerModel().clusterPower(CoreKind::Big, 1800, 1);
  EXPECT_NEAR(Meter.totalJoules(), BusyP * 1.0, 1e-6);
  EXPECT_NEAR(Meter.bigJoules(), Meter.totalJoules(), 1e-9);
}

TEST(EnergyMeterTest, SplitsAcrossClusters) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  EnergyMeter Meter(Chip);
  // 5s on little idle, then 5s on big idle.
  Sim.schedule(Duration::seconds(5),
               [&] { Chip.setConfig({CoreKind::Big, 800}); });
  Sim.schedule(Duration::seconds(10), [] {});
  Sim.run();
  EXPECT_NEAR(Meter.littleJoules(),
              Chip.powerModel().idlePower(CoreKind::Little) * 5.0, 1e-9);
  EXPECT_NEAR(Meter.bigJoules(),
              Chip.powerModel().idlePower(CoreKind::Big) * 5.0, 1e-9);
}

TEST(EnergyMeterTest, AverageWatts) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  EnergyMeter Meter(Chip);
  Sim.schedule(Duration::seconds(4), [] {});
  Sim.run();
  EXPECT_NEAR(Meter.averageWatts(),
              Chip.powerModel().idlePower(CoreKind::Little), 1e-9);
  EXPECT_DOUBLE_EQ(Meter.elapsed().secs(), 4.0);
}

TEST(EnergyMeterTest, ResetZeroesWindow) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  EnergyMeter Meter(Chip);
  Sim.schedule(Duration::seconds(2), [] {});
  Sim.run();
  EXPECT_GT(Meter.totalJoules(), 0.0);
  Meter.reset();
  EXPECT_DOUBLE_EQ(Meter.totalJoules(), 0.0);
  EXPECT_TRUE(Meter.elapsed().isZero());
  Sim.schedule(Duration::seconds(1), [] {});
  Sim.run();
  EXPECT_NEAR(Meter.totalJoules(),
              Chip.powerModel().idlePower(CoreKind::Little) * 1.0, 1e-9);
}

TEST(EnergyMeterTest, SamplingApproximatesExactIntegral) {
  // The paper's DAQ samples at 1 kS/s; left-rectangle integration of
  // those samples must land close to the exact integral for a workload
  // with millisecond-scale phases.
  Simulator Sim;
  AcmpChip Chip(Sim);
  EnergyMeter Meter(Chip);
  Meter.enableSampling(Duration::milliseconds(1));
  SimThread Thread(Sim, Chip, "t", 0);
  // Alternating 20ms busy / 30ms idle phases for half a second.
  for (int I = 0; I < 10; ++I) {
    SimTask T;
    T.Cost.Cycles = Chip.effectiveHzFor(Chip.config()) * 0.020;
    Thread.postDelayed(std::move(T), Duration::milliseconds(I * 50));
  }
  Sim.runUntil(TimePoint::origin() + Duration::milliseconds(500));
  double Exact = Meter.totalJoules();
  double Sampled = Meter.sampledJoules();
  EXPECT_GT(Exact, 0.0);
  EXPECT_NEAR(Sampled, Exact, Exact * 0.10);
  EXPECT_EQ(Meter.samples().size(), 500u);
}

TEST(EnergyMeterTest, EnergyScalesWithFrequencyCubed) {
  // For fixed *time* at higher frequency, energy grows superlinearly
  // (V^2 * f); this drives race-to-idle vs pace-to-target trade-offs.
  Simulator Sim;
  AcmpChip Chip(Sim);
  auto EnergyFor = [&](unsigned FreqMHz) {
    Chip.setConfig({CoreKind::Big, FreqMHz});
    EnergyMeter Meter(Chip);
    SimThread Thread(Sim, Chip, "t", 0);
    SimTask T;
    T.Cost.Cycles = 50e6;
    Thread.post(std::move(T));
    Sim.run();
    return Meter.totalJoules();
  };
  double E800 = EnergyFor(800);
  double E1800 = EnergyFor(1800);
  // Same cycle count, higher frequency: more joules despite less time.
  EXPECT_GT(E1800, E800);
}

TEST(EnergyMeterTest, OneMeterPerChipAndDetachOnDestruction) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  {
    EnergyMeter First(Chip);
    EXPECT_THROW(EnergyMeter Second(Chip), std::logic_error);
  }
  // The destroyed meter detached itself: the chip keeps accounting
  // without it, and a fresh meter can attach.
  Chip.setConfig({CoreKind::Big, 1800});
  EnergyMeter Fresh(Chip);
  Sim.schedule(Duration::milliseconds(10), [] {});
  Sim.run();
  EXPECT_DOUBLE_EQ(Fresh.totalJoules(), Chip.currentPowerWatts() * 0.010);
}
