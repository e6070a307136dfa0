//===- hw/EnergyMeter.h - Energy measurement ---------------------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Energy measurement over the ACMP chip. The paper measures processor
/// power through 10 mOhm sense resistors sampled at 1 kS/s by a NI DAQ
/// and multiplies by real execution time (Sec. 7.1). In simulation we can
/// integrate power exactly at every state-change boundary; an optional
/// 1 kHz sampling mode reproduces the paper's measurement pipeline for
/// comparison (and for tests that bound the sampling error).
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_HW_ENERGYMETER_H
#define GREENWEB_HW_ENERGYMETER_H

#include "hw/AcmpChip.h"

#include <vector>

namespace greenweb {

/// Integrates chip power into per-cluster energy totals.
class EnergyMeter {
public:
  /// Attaches to \p Chip as its meter hook, so every interval is
  /// integrated (before any state change) at the power level that was
  /// actually in effect. A chip carries at most one meter at a time
  /// (a second one throws std::logic_error); the meter detaches itself
  /// on destruction.
  explicit EnergyMeter(AcmpChip &Chip);
  ~EnergyMeter();

  EnergyMeter(const EnergyMeter &) = delete;
  EnergyMeter &operator=(const EnergyMeter &) = delete;

  /// Total energy since construction (or the last reset), joules.
  double totalJoules() const;

  /// Energy attributed to the big (A15) cluster, joules.
  double bigJoules() const;

  /// Energy attributed to the little (A7) cluster, joules.
  double littleJoules() const;

  /// Average power over the metering window, watts.
  double averageWatts() const;

  /// Time covered by the meter so far.
  Duration elapsed() const;

  /// Zeroes all accumulators and restarts the window at the current time.
  void reset();

  /// Enables DAQ-style periodic sampling with period \p SamplePeriod
  /// (1 ms reproduces the paper's 1 kS/s). Samples are instantaneous
  /// power readings in watts.
  void enableSampling(Duration SamplePeriod);

  /// Emits one telemetry energy sample at the current instant without
  /// touching the periodic schedule or the samples() series. Closes the
  /// attribution ledger at end of run: the tail between the last
  /// periodic tick and "now" reaches the log, so per-annotation
  /// energies reconcile against totalJoules(). No-op without an
  /// attached telemetry hub.
  void recordSampleNow();

  /// Recorded samples (empty unless sampling was enabled).
  const std::vector<double> &samples() const { return Samples; }

  /// Energy estimated from the samples by left-rectangle integration,
  /// joules. Tests compare this against totalJoules() to bound sampling
  /// error, mirroring the paper's measurement methodology.
  double sampledJoules() const;

private:
  friend class AcmpChip;

  /// Integrates the interval since the last update at current power.
  void integrate() const;
  void scheduleNextSample();

  AcmpChip &Chip;
  Simulator &Sim;

  mutable TimePoint LastUpdate;
  mutable double TotalJ = 0.0;
  mutable double BigJ = 0.0;
  mutable double LittleJ = 0.0;
  TimePoint WindowStart;

  Duration SamplePeriod = Duration::zero();
  std::vector<double> Samples;
  EventHandle SampleEvent;
};

} // namespace greenweb

#endif // GREENWEB_HW_ENERGYMETER_H
