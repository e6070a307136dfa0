//===- tests/hw/AcmpTest.cpp - ACMP hardware model tests ----------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "faults/FaultInjector.h"
#include "hw/AcmpChip.h"
#include "hw/PowerModel.h"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

using namespace greenweb;

TEST(AcmpSpecTest, Exynos5410Levels) {
  AcmpSpec Spec = makeExynos5410Spec();
  // A15: 800 MHz - 1.8 GHz at 100 MHz steps -> 11 levels (Sec. 7.1).
  EXPECT_EQ(Spec.Big.FreqsMHz.size(), 11u);
  EXPECT_EQ(Spec.Big.minFreq(), 800u);
  EXPECT_EQ(Spec.Big.maxFreq(), 1800u);
  // A7: 350 - 600 MHz at 50 MHz steps -> 6 levels.
  EXPECT_EQ(Spec.Little.FreqsMHz.size(), 6u);
  EXPECT_EQ(Spec.Little.minFreq(), 350u);
  EXPECT_EQ(Spec.Little.maxFreq(), 600u);
  // 17 total configurations.
  EXPECT_EQ(Spec.allConfigs().size(), 17u);
  // Penalties from the paper.
  EXPECT_EQ(Spec.FreqSwitchPenalty, Duration::microseconds(100));
  EXPECT_EQ(Spec.MigrationPenalty, Duration::microseconds(20));
}

TEST(AcmpSpecTest, ConfigValidity) {
  AcmpSpec Spec = makeExynos5410Spec();
  EXPECT_TRUE(Spec.isValid({CoreKind::Big, 1800}));
  EXPECT_TRUE(Spec.isValid({CoreKind::Little, 350}));
  EXPECT_FALSE(Spec.isValid({CoreKind::Big, 350}));
  EXPECT_FALSE(Spec.isValid({CoreKind::Little, 1800}));
  EXPECT_FALSE(Spec.isValid({CoreKind::Big, 850}));
}

TEST(AcmpSpecTest, MinMaxConfigs) {
  AcmpSpec Spec = makeExynos5410Spec();
  EXPECT_EQ(Spec.minConfig(), (AcmpConfig{CoreKind::Little, 350}));
  EXPECT_EQ(Spec.maxConfig(), (AcmpConfig{CoreKind::Big, 1800}));
}

TEST(AcmpSpecTest, ConfigStr) {
  EXPECT_EQ((AcmpConfig{CoreKind::Big, 1400}).str(), "A15@1400MHz");
  EXPECT_EQ((AcmpConfig{CoreKind::Little, 500}).str(), "A7@500MHz");
}

TEST(PowerModelTest, VoltageInterpolation) {
  AcmpSpec Spec = makeExynos5410Spec();
  PowerModel Power(Spec);
  EXPECT_DOUBLE_EQ(Power.voltageAt(CoreKind::Big, 800), Spec.Big.VoltMinV);
  EXPECT_DOUBLE_EQ(Power.voltageAt(CoreKind::Big, 1800), Spec.Big.VoltMaxV);
  double Mid = Power.voltageAt(CoreKind::Big, 1300);
  EXPECT_GT(Mid, Spec.Big.VoltMinV);
  EXPECT_LT(Mid, Spec.Big.VoltMaxV);
}

TEST(PowerModelTest, BigAt1800DrawsAboutTwoWatts) {
  AcmpSpec Spec = makeExynos5410Spec();
  PowerModel Power(Spec);
  double P = Power.dynamicPowerPerCore(CoreKind::Big, 1800);
  EXPECT_GT(P, 1.2);
  EXPECT_LT(P, 2.5);
}

TEST(PowerModelTest, LittleIsAnOrderOfMagnitudeCheaper) {
  AcmpSpec Spec = makeExynos5410Spec();
  PowerModel Power(Spec);
  double Big = Power.dynamicPowerPerCore(CoreKind::Big, 1800);
  double Little = Power.dynamicPowerPerCore(CoreKind::Little, 600);
  EXPECT_GT(Big / Little, 8.0);
}

TEST(PowerModelTest, LittleIsMoreEnergyEfficientPerCycle) {
  // The ACMP trade-off the paper exploits: joules per effective cycle
  // must be lower on the little cluster.
  Simulator Sim;
  AcmpChip Chip(Sim);
  const PowerModel &Power = Chip.powerModel();
  double BigEff = Power.clusterPower(CoreKind::Big, 1800, 1) /
                  Chip.effectiveHzFor({CoreKind::Big, 1800});
  double LittleEff = Power.clusterPower(CoreKind::Little, 600, 1) /
                     Chip.effectiveHzFor({CoreKind::Little, 600});
  EXPECT_GT(BigEff / LittleEff, 1.5);
}

TEST(PowerModelTest, BusyCoresAdditive) {
  AcmpSpec Spec = makeExynos5410Spec();
  PowerModel Power(Spec);
  double P0 = Power.clusterPower(CoreKind::Big, 1000, 0);
  double P1 = Power.clusterPower(CoreKind::Big, 1000, 1);
  double P2 = Power.clusterPower(CoreKind::Big, 1000, 2);
  EXPECT_DOUBLE_EQ(P0, Power.idlePower(CoreKind::Big));
  EXPECT_NEAR(P2 - P1, P1 - P0, 1e-12);
}

/// Power must increase monotonically with frequency on each cluster.
class PowerMonotone
    : public ::testing::TestWithParam<CoreKind> {};

TEST_P(PowerMonotone, IncreasesWithFrequency) {
  AcmpSpec Spec = makeExynos5410Spec();
  PowerModel Power(Spec);
  const ClusterSpec &Cluster = Spec.cluster(GetParam());
  double Last = 0.0;
  for (unsigned Freq : Cluster.FreqsMHz) {
    double P = Power.dynamicPowerPerCore(GetParam(), Freq);
    EXPECT_GT(P, Last);
    Last = P;
  }
}

INSTANTIATE_TEST_SUITE_P(Clusters, PowerMonotone,
                         ::testing::Values(CoreKind::Little, CoreKind::Big));

TEST(AcmpChipTest, BootsAtMinimumConfig) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  EXPECT_EQ(Chip.config(), Chip.spec().minConfig());
}

TEST(AcmpChipTest, EffectiveHzUsesIpc) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  EXPECT_DOUBLE_EQ(Chip.effectiveHzFor({CoreKind::Big, 1000}),
                   1000e6 * Chip.spec().Big.Ipc);
  EXPECT_DOUBLE_EQ(Chip.effectiveHzFor({CoreKind::Little, 500}),
                   500e6 * Chip.spec().Little.Ipc);
}

TEST(AcmpChipTest, BigMinFasterThanLittleMax) {
  // The ladder is monotone across the cluster boundary.
  Simulator Sim;
  AcmpChip Chip(Sim);
  EXPECT_GT(Chip.effectiveHzFor({CoreKind::Big, 800}),
            Chip.effectiveHzFor({CoreKind::Little, 600}));
}

TEST(AcmpChipTest, SwitchCountersDistinguishKinds) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  Chip.setConfig({CoreKind::Little, 600});   // freq switch
  Chip.setConfig({CoreKind::Big, 800});      // migration + freq? no: 600->800 both
  Chip.setConfig({CoreKind::Big, 1000});     // freq switch
  EXPECT_EQ(Chip.migrations(), 1u);
  EXPECT_EQ(Chip.freqSwitches(), 3u);
}

TEST(AcmpChipTest, SameConfigIsNoOp) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  AcmpConfig C = Chip.config();
  EXPECT_FALSE(Chip.setConfig(C));
  EXPECT_EQ(Chip.freqSwitches(), 0u);
  EXPECT_EQ(Chip.migrations(), 0u);
}

TEST(AcmpChipTest, StepFrequencyClampsAtEdges) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  EXPECT_FALSE(Chip.stepFrequency(-1)); // already at cluster min
  EXPECT_TRUE(Chip.stepFrequency(+1));
  EXPECT_EQ(Chip.config().FreqMHz, 400u);
  EXPECT_TRUE(Chip.stepFrequency(+100)); // clamps to cluster max
  EXPECT_EQ(Chip.config().FreqMHz, 600u);
  EXPECT_EQ(Chip.config().Core, CoreKind::Little);
}

TEST(AcmpChipTest, ConfigTimeDistributionAccounts) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  Sim.schedule(Duration::milliseconds(10),
               [&] { Chip.setConfig({CoreKind::Big, 1800}); });
  Sim.schedule(Duration::milliseconds(30), [] {});
  Sim.run();
  auto Dist = Chip.configTimeDistribution();
  EXPECT_DOUBLE_EQ(Dist[Chip.spec().minConfig()].millis(), 10.0);
  AcmpConfig BigMax{CoreKind::Big, 1800};
  EXPECT_DOUBLE_EQ(Dist[BigMax].millis(), 20.0);
}

TEST(AcmpChipTest, ResetStatsClears) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  Chip.setConfig({CoreKind::Big, 1800});
  Chip.resetStats();
  EXPECT_EQ(Chip.freqSwitches(), 0u);
  EXPECT_EQ(Chip.migrations(), 0u);
  auto Dist = Chip.configTimeDistribution();
  Duration Total;
  for (auto &[Config, T] : Dist)
    Total += T;
  EXPECT_TRUE(Total.isZero());
}

TEST(AcmpChipTest, MigrationStallsInFlightWork) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  Chip.setConfig({CoreKind::Little, 600});
  SimThread Thread(Sim, Chip, "t", 0);
  TimePoint Done;
  SimTask T;
  T.Cost.Cycles = 0.48e6; // 1ms at little-600 effective speed
  T.OnComplete = [&] { Done = Sim.now(); };
  TimePoint Start = Sim.now();
  Thread.post(std::move(T));
  // Migrate at 0.5ms: remaining 0.5ms of little work now runs ~6x
  // faster on big-1800, plus the 120us combined penalty.
  Sim.schedule(Duration::microseconds(500),
               [&] { Chip.setConfig({CoreKind::Big, 1800}); });
  Sim.run();
  double Ms = (Done - Start).millis();
  EXPECT_GT(Ms, 0.5 + 0.12);       // penalty applied
  EXPECT_LT(Ms, 1.0);              // but faster than staying on little
}

TEST(AcmpChipTest, BusyCountTracksThreads) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  SimThread A(Sim, Chip, "a", 0);
  SimThread B(Sim, Chip, "b", 1);
  SimTask T1;
  T1.Cost.Cycles = 1e6;
  SimTask T2;
  T2.Cost.Cycles = 2e6;
  A.post(std::move(T1));
  B.post(std::move(T2));
  EXPECT_EQ(Chip.busyThreads(), 2u);
  Sim.run();
  EXPECT_EQ(Chip.busyThreads(), 0u);
}

namespace {

uint64_t bitsOf(double V) { return std::bit_cast<uint64_t>(V); }

/// Walks the busy count 0..4 on \p Chip's current configuration and
/// checks that the cached power and rate are bitwise the uncached
/// PowerModel / effectiveHzFor values (4 exercises the uncached path).
void expectCachesExact(AcmpChip &Chip) {
  const PowerModel &Power = Chip.powerModel();
  AcmpConfig C = Chip.config();
  for (unsigned Busy = 0; Busy <= 4; ++Busy) {
    ASSERT_EQ(Chip.busyThreads(), Busy);
    EXPECT_EQ(bitsOf(Chip.currentPowerWatts()),
              bitsOf(Power.clusterPower(C.Core, C.FreqMHz, Busy)))
        << C.str() << " busy " << Busy;
    EXPECT_EQ(bitsOf(Chip.effectiveHz(Busy)), bitsOf(Chip.effectiveHzFor(C)))
        << C.str();
    if (Busy < 4)
      Chip.onThreadActivity(Busy, /*Busy=*/true);
  }
  for (unsigned Busy = 0; Busy < 4; ++Busy)
    Chip.onThreadActivity(Busy, /*Busy=*/false);
}

} // namespace

TEST(AcmpChipTest, CachedPowerAndHzAreBitwiseUncachedValues) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  expectCachesExact(Chip); // boot configuration
  const PowerModel &Power = Chip.powerModel();
  std::vector<AcmpConfig> All = Chip.spec().allConfigs();
  ASSERT_EQ(Chip.configPoints().size(), All.size());
  for (size_t I = 0; I < All.size(); ++I) {
    const AcmpChip::ConfigPoint &P = Chip.configPoints()[I];
    ASSERT_EQ(P.Config, All[I]);
    EXPECT_EQ(bitsOf(P.Hz), bitsOf(Chip.effectiveHzFor(P.Config)));
    EXPECT_EQ(bitsOf(P.OneCoreWatts),
              bitsOf(Power.clusterPower(P.Config.Core, P.Config.FreqMHz, 1)));
  }
  for (const AcmpConfig &C : All) {
    Chip.setConfig(C);
    ASSERT_EQ(Chip.config(), C);
    expectCachesExact(Chip);
  }
}

TEST(AcmpChipTest, CachedPowerAndHzFollowThermalClamp) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  Chip.setConfig({CoreKind::Big, 1800});
  FaultPlan Plan;
  FaultSpec Thermal;
  Thermal.Kind = FaultKind::ThermalThrottle;
  Thermal.Start = Duration::zero();
  Thermal.Length = Duration::seconds(10);
  Thermal.CapMHz = 1000;
  Plan.Faults = {Thermal};
  FaultInjector Inj(Sim, Plan);
  Inj.arm(Sim.now());
  Sim.runUntil(Sim.now() + Duration::milliseconds(1));
  ASSERT_EQ(Inj.thermalCapMHz(), 1000u);
  // The throttle window clamps the running peak configuration in place.
  Chip.enforceThermalCap();
  ASSERT_EQ(Chip.config(), (AcmpConfig{CoreKind::Big, 1000}));
  expectCachesExact(Chip);
  for (const AcmpConfig &C : Chip.spec().allConfigs()) {
    Chip.setConfig(C);
    if (C.Core == CoreKind::Big && C.FreqMHz > 1000)
      ASSERT_EQ(Chip.config(), (AcmpConfig{CoreKind::Big, 1000}));
    else
      ASSERT_EQ(Chip.config(), C);
    expectCachesExact(Chip);
  }
}

TEST(AcmpChipTest, ConfigHeldForZeroTimeGetsNoDistributionEntry) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  AcmpConfig Passing{CoreKind::Big, 1200};
  AcmpConfig Held{CoreKind::Big, 1800};
  Sim.schedule(Duration::milliseconds(10), [&] {
    // Two changes at one instant: Passing is in effect for zero time.
    Chip.setConfig(Passing);
    Chip.setConfig(Held);
  });
  Sim.schedule(Duration::milliseconds(15), [] {});
  Sim.run();
  auto Dist = Chip.configTimeDistribution();
  EXPECT_EQ(Dist.count(Passing), 0u);
  EXPECT_EQ(Dist.size(), 2u);
  EXPECT_EQ(Dist[Chip.spec().minConfig()], Duration::milliseconds(10));
  EXPECT_EQ(Dist[Held], Duration::milliseconds(5));
  // The same holds for a config passed through again after time
  // accrued to it: its entry keeps exactly its non-zero time.
  Chip.setConfig(Passing);
  Chip.setConfig(Held);
  Sim.runUntil(Sim.now() + Duration::milliseconds(5));
  Dist = Chip.configTimeDistribution();
  EXPECT_EQ(Dist.count(Passing), 0u);
  EXPECT_EQ(Dist[Held], Duration::milliseconds(10));
}
