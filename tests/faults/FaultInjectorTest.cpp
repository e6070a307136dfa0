//===- tests/faults/FaultInjectorTest.cpp - FaultInjector unit tests -------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "faults/FaultInjector.h"
#include "telemetry/Telemetry.h"

#include <cmath>

#include <gtest/gtest.h>

using namespace greenweb;

namespace {

FaultSpec makeSpec(FaultKind Kind, Duration Start, Duration Length) {
  FaultSpec S;
  S.Kind = Kind;
  S.Start = Start;
  S.Length = Length;
  return S;
}

TEST(FaultInjectorTest, RegistersWithSimulatorForItsLifetime) {
  Simulator Sim;
  {
    FaultInjector Inj(Sim, FaultPlan{});
    EXPECT_EQ(Sim.faultInjector(), &Inj);
  }
  EXPECT_EQ(Sim.faultInjector(), nullptr);
}

TEST(FaultInjectorTest, WindowsFollowTheVirtualClock) {
  Simulator Sim;
  FaultPlan Plan;
  FaultSpec Thermal = makeSpec(FaultKind::ThermalThrottle,
                               Duration::seconds(1), Duration::seconds(2));
  Thermal.CapMHz = 1000;
  Plan.Faults = {Thermal};

  FaultInjector Inj(Sim, Plan);
  TimePoint Origin = Sim.now();
  Inj.arm(Origin);

  Sim.runUntil(Origin + Duration::milliseconds(500));
  EXPECT_EQ(Inj.thermalCapMHz(), 0u);
  Sim.runUntil(Origin + Duration::milliseconds(1500));
  EXPECT_EQ(Inj.thermalCapMHz(), 1000u);
  Sim.runUntil(Origin + Duration::milliseconds(3500));
  EXPECT_EQ(Inj.thermalCapMHz(), 0u);
}

TEST(FaultInjectorTest, ZeroLengthWindowRunsToEndOfRun) {
  Simulator Sim;
  FaultPlan Plan;
  FaultSpec Thermal = makeSpec(FaultKind::ThermalThrottle,
                               Duration::seconds(1), Duration::zero());
  Thermal.CapMHz = 1400;
  Plan.Faults = {Thermal};

  FaultInjector Inj(Sim, Plan);
  TimePoint Origin = Sim.now();
  Inj.arm(Origin);
  Sim.runUntil(Origin + Duration::seconds(60));
  EXPECT_EQ(Inj.thermalCapMHz(), 1400u);
}

TEST(FaultInjectorTest, ThermalCapIsMinOfActiveWindows) {
  Simulator Sim;
  FaultPlan Plan;
  FaultSpec Mild = makeSpec(FaultKind::ThermalThrottle, Duration::zero(),
                            Duration::seconds(10));
  Mild.CapMHz = 1400;
  FaultSpec Harsh = makeSpec(FaultKind::ThermalThrottle, Duration::seconds(2),
                             Duration::seconds(2));
  Harsh.CapMHz = 1000;
  Plan.Faults = {Mild, Harsh};

  FaultInjector Inj(Sim, Plan);
  TimePoint Origin = Sim.now();
  Inj.arm(Origin);

  Sim.runUntil(Origin + Duration::seconds(1));
  EXPECT_EQ(Inj.thermalCapMHz(), 1400u);
  Sim.runUntil(Origin + Duration::seconds(3));
  EXPECT_EQ(Inj.thermalCapMHz(), 1000u);
  Sim.runUntil(Origin + Duration::seconds(5));
  EXPECT_EQ(Inj.thermalCapMHz(), 1400u);
}

TEST(FaultInjectorTest, DvfsOutcomesRespectTheSpec) {
  Simulator Sim;
  FaultPlan Plan;
  FaultSpec Dvfs =
      makeSpec(FaultKind::DvfsFlaky, Duration::zero(), Duration::zero());
  Dvfs.FailProb = 1.0;
  Plan.Faults = {Dvfs};

  FaultInjector Inj(Sim, Plan);
  Duration Extra = Duration::zero();
  // Not armed yet: no active window, transitions proceed.
  EXPECT_EQ(Inj.sampleDvfsTransition(Extra),
            FaultInjector::DvfsOutcome::Ok);
  Inj.arm(Sim.now());
  Sim.runUntil(Sim.now() + Duration::milliseconds(1));
  EXPECT_EQ(Inj.sampleDvfsTransition(Extra),
            FaultInjector::DvfsOutcome::Fail);
  EXPECT_EQ(Inj.stats().DvfsFailures, 1u);

  // A delay-only spec always lands Delayed with the configured stall.
  Simulator Sim2;
  FaultPlan Plan2;
  FaultSpec Slow =
      makeSpec(FaultKind::DvfsFlaky, Duration::zero(), Duration::zero());
  Slow.ExtraDelay = Duration::microseconds(400);
  Plan2.Faults = {Slow};
  FaultInjector Inj2(Sim2, Plan2);
  Inj2.arm(Sim2.now());
  Sim2.runUntil(Sim2.now() + Duration::milliseconds(1));
  EXPECT_EQ(Inj2.sampleDvfsTransition(Extra),
            FaultInjector::DvfsOutcome::Delayed);
  EXPECT_EQ(Extra, Duration::microseconds(400));
  EXPECT_EQ(Inj2.stats().DvfsDelays, 1u);
}

TEST(FaultInjectorTest, MeterFaultsDistortTheSampleStream) {
  Simulator Sim;
  FaultPlan Plan;
  FaultSpec Noise =
      makeSpec(FaultKind::MeterNoise, Duration::zero(), Duration::zero());
  Noise.DropProb = 1.0;
  Noise.SigmaWatts = 0.5;
  Plan.Faults = {Noise};

  FaultInjector Inj(Sim, Plan);
  Inj.arm(Sim.now());
  Sim.runUntil(Sim.now() + Duration::milliseconds(1));

  EXPECT_TRUE(Inj.dropMeterSample());
  double SumAbs = 0.0;
  for (int I = 0; I < 32; ++I)
    SumAbs += std::abs(Inj.meterNoiseWatts());
  EXPECT_GT(SumAbs, 0.0);
  EXPECT_EQ(Inj.stats().MeterDrops, 1u);
  EXPECT_EQ(Inj.stats().MeterNoisySamples, 32u);
}

TEST(FaultInjectorTest, CallbackSpikeScalesCost) {
  Simulator Sim;
  FaultPlan Plan;
  FaultSpec Spike =
      makeSpec(FaultKind::CallbackSpike, Duration::zero(), Duration::zero());
  Spike.SpikeProb = 1.0;
  Spike.SpikeScale = 8.0;
  Plan.Faults = {Spike};

  FaultInjector Inj(Sim, Plan);
  // Inactive window: unity scale, no stats, no stream draw.
  EXPECT_EQ(Inj.callbackCostScale(), 1.0);
  EXPECT_EQ(Inj.stats().CallbackSpikes, 0u);
  Inj.arm(Sim.now());
  Sim.runUntil(Sim.now() + Duration::milliseconds(1));
  EXPECT_EQ(Inj.callbackCostScale(), 8.0);
  EXPECT_EQ(Inj.stats().CallbackSpikes, 1u);
}

TEST(FaultInjectorTest, VsyncFaultsAreAPureFunctionOfTheSlot) {
  FaultPlan Plan;
  Plan.Seed = 9;
  FaultSpec Vsync =
      makeSpec(FaultKind::VsyncJitter, Duration::zero(), Duration::zero());
  Vsync.JitterMax = Duration::milliseconds(12);
  Vsync.DropProb = 0.2;
  Plan.Faults = {Vsync};

  Simulator SimA;
  FaultInjector A(SimA, Plan);
  A.arm(SimA.now());
  SimA.runUntil(SimA.now() + Duration::milliseconds(1));

  // Collect the per-slot decisions in ascending order.
  std::vector<Duration> Jitter;
  std::vector<bool> Dropped;
  bool AnyDrop = false, AnySurvive = false, AnyJitter = false;
  for (int64_t Slot = 0; Slot < 256; ++Slot) {
    Jitter.push_back(A.vsyncJitter(Slot));
    Dropped.push_back(A.dropVsyncTick(Slot));
    EXPECT_GE(Jitter.back().nanos(), 0);
    EXPECT_LT(Jitter.back().nanos(), Duration::milliseconds(12).nanos());
    AnyDrop |= Dropped.back();
    AnySurvive |= !Dropped.back();
    AnyJitter |= !Jitter.back().isZero();
  }
  EXPECT_TRUE(AnyDrop);
  EXPECT_TRUE(AnySurvive);
  EXPECT_TRUE(AnyJitter);

  // A second injector that polls the slots in reverse — and queries some
  // slots repeatedly — sees the identical display timeline.
  Simulator SimB;
  FaultInjector B(SimB, Plan);
  B.arm(SimB.now());
  SimB.runUntil(SimB.now() + Duration::milliseconds(1));
  for (int64_t Slot = 255; Slot >= 0; --Slot) {
    B.dropVsyncTick(Slot % 7); // extra polls must not shift anything
    EXPECT_EQ(B.vsyncJitter(Slot), Jitter[size_t(Slot)]) << Slot;
    EXPECT_EQ(B.dropVsyncTick(Slot), Dropped[size_t(Slot)]) << Slot;
  }
}

TEST(FaultInjectorTest, MislabelIsWindowAgnosticAndDeterministic) {
  FaultPlan Plan;
  Plan.Seed = 3;
  FaultSpec Mislabel = makeSpec(FaultKind::AnnotationMislabel,
                                Duration::seconds(99), Duration::seconds(1));
  Mislabel.MislabelProb = 1.0;
  Mislabel.TargetScale = 0.25;
  Mislabel.FlipType = true;
  Plan.Faults = {Mislabel};

  Simulator Sim;
  FaultInjector Inj(Sim, Plan);
  // Never armed: annotations are fixed at parse time, so the window is
  // ignored and the spec applies whenever it is in the plan.
  FaultInjector::MislabelDecision D = Inj.annotationMislabel(42);
  EXPECT_TRUE(D.Mislabel);
  EXPECT_TRUE(D.FlipType);
  EXPECT_EQ(D.TargetScale, 0.25);
  EXPECT_EQ(Inj.stats().AnnotationMislabels, 1u);
}

TEST(FaultInjectorTest, SameSeedSamePlanIsDeterministic) {
  FaultPlan Plan = *FaultPlan::scenario("dvfs", 17);
  auto Sample = [&](int N) {
    Simulator Sim;
    FaultInjector Inj(Sim, Plan);
    Inj.arm(Sim.now());
    Sim.runUntil(Sim.now() + Duration::seconds(2));
    std::vector<int> Outcomes;
    for (int I = 0; I < N; ++I) {
      Duration Extra = Duration::zero();
      Outcomes.push_back(int(Inj.sampleDvfsTransition(Extra)));
    }
    return Outcomes;
  };
  EXPECT_EQ(Sample(64), Sample(64));
}

TEST(FaultInjectorTest, WindowListenersSeeTransitions) {
  Simulator Sim;
  FaultPlan Plan;
  FaultSpec Thermal = makeSpec(FaultKind::ThermalThrottle,
                               Duration::seconds(1), Duration::seconds(1));
  Thermal.CapMHz = 1000;
  Plan.Faults = {Thermal};

  FaultInjector Inj(Sim, Plan);
  std::vector<std::pair<FaultKind, bool>> Seen;
  Inj.addWindowListener([&](const FaultSpec &S, bool Began) {
    Seen.emplace_back(S.Kind, Began);
  });
  Inj.arm(Sim.now());
  Sim.runUntil(Sim.now() + Duration::seconds(3));
  ASSERT_EQ(Seen.size(), 2u);
  EXPECT_EQ(Seen[0], (std::pair<FaultKind, bool>{FaultKind::ThermalThrottle,
                                                 true}));
  EXPECT_EQ(Seen[1], (std::pair<FaultKind, bool>{FaultKind::ThermalThrottle,
                                                 false}));
}

TEST(FaultInjectorTest, WindowsAndInjectionsReachTelemetry) {
  Simulator Sim;
  Telemetry Tel;
  Sim.setTelemetry(&Tel);

  FaultPlan Plan;
  FaultSpec Spike = makeSpec(FaultKind::CallbackSpike,
                             Duration::seconds(1), Duration::seconds(1));
  Spike.SpikeProb = 1.0;
  Spike.SpikeScale = 4.0;
  Plan.Faults = {Spike};

  FaultInjector Inj(Sim, Plan);
  Inj.arm(Sim.now());
  Sim.runUntil(Sim.now() + Duration::milliseconds(1500));
  EXPECT_EQ(Inj.callbackCostScale(), 4.0);
  Sim.runUntil(Sim.now() + Duration::seconds(1));

  std::vector<std::string> Phases;
  for (const TelemetryRecord *R :
       Tel.log().byKind(TelemetryEventKind::Fault)) {
    EXPECT_EQ(R->as<FaultEventRecord>().Fault, "callback_spike");
    Phases.push_back(R->as<FaultEventRecord>().Phase);
  }
  ASSERT_EQ(Phases.size(), 3u);
  EXPECT_EQ(Phases[0], "begin");
  EXPECT_EQ(Phases[1], "inject");
  EXPECT_EQ(Phases[2], "end");
  EXPECT_EQ(Tel.metrics().counter("faults.callback_spike.inject").value(), 1u);

  Sim.setTelemetry(nullptr);
}

} // namespace
