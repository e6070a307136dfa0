//===- hw/AcmpChip.h - ACMP chip runtime model ------------------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamic model of the ACMP chip: holds the current <core, frequency>
/// configuration, executes configuration changes with their penalties,
/// supplies effective execution speed to simulated threads, and accounts
/// time-at-configuration and switch statistics (the raw data behind
/// Fig. 11 and Fig. 12 of the paper).
///
/// The chip caches what every thread busy/idle flip reads: the active
/// configuration's effective cycle rate and its power at each busy-core
/// count. Both come from the same PowerModel/effectiveHzFor calls as an
/// uncached read, so the cached doubles are bitwise those values; they
/// are recomputed only when the configuration changes.
///
/// Transition penalties are modeled as stalls injected into in-flight
/// tasks: 100 us for a frequency change and 20 us for a cluster
/// migration (both at once costs the sum). The paper notes these are
/// microseconds against millisecond-scale QoS targets, so modeling them
/// as compute stalls (rather than separate power states) is faithful
/// where it matters.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_HW_ACMPCHIP_H
#define GREENWEB_HW_ACMPCHIP_H

#include "hw/AcmpSpec.h"
#include "hw/PowerModel.h"
#include "sim/SimThread.h"
#include "sim/Simulator.h"

#include <functional>
#include <map>
#include <vector>

namespace greenweb {

class EnergyMeter;

/// Runtime ACMP model; the CpuModel all browser threads execute against.
class AcmpChip : public CpuModel {
public:
  AcmpChip(Simulator &Sim, AcmpSpec Spec = makeExynos5410Spec());

  const AcmpSpec &spec() const { return Spec; }
  const PowerModel &powerModel() const { return Power; }
  Simulator &simulator() { return Sim; }

  /// Current execution configuration.
  AcmpConfig config() const { return Config; }

  /// Applies a new configuration. Returns false (and does nothing) if
  /// \p NewConfig equals the current one. Asserts on invalid configs.
  /// Frequency changes stall in-flight work by the frequency-switch
  /// penalty; cluster changes add the migration penalty.
  ///
  /// With a fault injector attached, the request is first clamped to
  /// any active thermal cap (like a firmware thermal governor sitting
  /// below the OS policy), and the transition itself may fail or take
  /// longer per the injected DVFS fault. A failed transition returns
  /// false with the configuration unchanged.
  bool setConfig(AcmpConfig NewConfig);

  /// Re-issues the current configuration through the thermal clamp.
  /// The experiment harness calls this when a throttle window opens
  /// while the chip already sits above the new cap.
  void enforceThermalCap();

  /// Convenience: change only the frequency on the current cluster.
  bool setFrequency(unsigned FreqMHz);

  /// Steps the current frequency up/down one DVFS level within the
  /// cluster. Returns false when already at the edge.
  bool stepFrequency(int Levels);

  /// Effective cycle rate (frequency times cluster IPC). All simulated
  /// web threads run on the active cluster, so the rate is shared.
  double effectiveHz(unsigned ThreadId) const override;

  /// Effective cycle rate an arbitrary configuration would provide; the
  /// GreenWeb runtime uses this for its prediction sweep.
  double effectiveHzFor(const AcmpConfig &C) const;

  /// One configuration with the constants a configuration sweep reads.
  struct ConfigPoint {
    AcmpConfig Config;
    /// effectiveHzFor(Config).
    double Hz = 0.0;
    /// PowerModel::clusterPower of Config with one busy core, watts.
    double OneCoreWatts = 0.0;
  };

  /// Every configuration of the spec, in AcmpSpec::allConfigs order,
  /// with its rate and one-core power. Built once at construction, so a
  /// per-decision sweep neither rebuilds the list nor re-evaluates the
  /// power model; the doubles are bitwise the uncached values.
  const std::vector<ConfigPoint> &configPoints() const { return Points; }

  void onThreadActivity(unsigned ThreadId, bool Busy) override;

  /// Number of threads currently executing.
  unsigned busyThreads() const { return BusyCount; }

  /// Instantaneous chip power at the current state, watts.
  double currentPowerWatts() const;

  /// Registered observers run immediately *before* any accounted state
  /// change (configuration or busy count), while the old state is still
  /// visible, after the attached energy meter has integrated the
  /// elapsed interval.
  void addPreChangeListener(std::function<void()> Listener);

  /// --- Statistics (Fig. 11 / Fig. 12 raw data) ---

  /// Total time spent in each configuration so far, including the
  /// in-progress interval.
  std::map<AcmpConfig, Duration> configTimeDistribution() const;

  /// Counts of frequency-only switches and cluster migrations.
  uint64_t freqSwitches() const { return FreqSwitchCount; }
  uint64_t migrations() const { return MigrationCount; }

  /// Resets switch counters and the time distribution (used between
  /// experiment phases).
  void resetStats();

private:
  friend class EnergyMeter;

  /// Folds the interval since the last state change into the accounting
  /// structures, integrates the meter and notifies pre-change listeners.
  void accountInterval();

  /// Refreshes the cached rate and per-busy-count power of Config.
  void cacheConfigState();

  /// Clamps \p C to the injector's active thermal cap (identity when no
  /// injector or no open throttle window).
  AcmpConfig clampToThermalCap(AcmpConfig C) const;

  Simulator &Sim;
  AcmpSpec Spec;
  PowerModel Power;

  std::vector<ConfigPoint> Points;

  AcmpConfig Config;
  unsigned BusyCount = 0;
  /// effectiveHzFor(Config).
  double ConfigHz = 0.0;
  /// Power.clusterPower(Config, N) for N busy cores; larger counts are
  /// computed on demand.
  double PowerByBusy[4] = {};

  TimePoint LastChange;
  std::map<AcmpConfig, Duration> ConfigTime;
  /// ConfigTime's entry for Config, looked up on the configuration's
  /// first non-zero interval (a config held for zero time never gets an
  /// entry) and dropped on every change.
  Duration *ConfigSlot = nullptr;
  uint64_t FreqSwitchCount = 0;
  uint64_t MigrationCount = 0;

  /// The energy meter's direct hook (EnergyMeter attaches itself);
  /// integrated before any listener runs.
  EnergyMeter *Meter = nullptr;
  std::vector<std::function<void()>> PreChangeListeners;
};

} // namespace greenweb

#endif // GREENWEB_HW_ACMPCHIP_H
