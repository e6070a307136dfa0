//===- telemetry/AnomalyDetector.h - Online change-point alerts -*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Online anomaly detection over the telemetry record stream. A
/// DetectorBank watches three signals that bound the QoS/energy story:
///
///   frame_latency   per-frame production latency ("total" frame_stage
///                   records the browser emits at present time)
///   energy_per_frame joules consumed per presented frame, derived from
///                   consecutive energy_sample records
///   decision_churn  governor decisions inside a trailing window (a
///                   thrashing policy re-decides far more often than a
///                   settled one)
///
/// Each signal runs through an EWMA-baselined two-sided CUSUM: the
/// baseline mean and mean absolute deviation adapt exponentially, and
/// the standardized innovation accumulates into the classic positive /
/// negative CUSUM statistics. Crossing the decision threshold emits a
/// first-class Alert record into the stream and resets the statistic.
///
/// Determinism contract: a detector is a pure fold over the record
/// sequence — no wall clock, no randomness, and timestamps are taken
/// from the triggering record, never from a live clock. Feeding the
/// same records therefore yields byte-identical alerts whether the bank
/// runs online inside the Telemetry hub or offline over a parsed JSONL
/// log (`gw-inspect alerts`). All floating-point math lives in the
/// .cpp, so both paths execute the same object code.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_TELEMETRY_ANOMALYDETECTOR_H
#define GREENWEB_TELEMETRY_ANOMALYDETECTOR_H

#include "telemetry/TelemetryLog.h"

#include <cstdint>
#include <vector>

namespace greenweb {

/// Tuning for every detector in a bank. Defaults are deliberately
/// conservative: alert on sustained shifts (a fault window, a thermal
/// cap, a watchdog storm), not on single noisy frames.
struct DetectorConfig {
  /// EWMA smoothing factor for the baseline mean and deviation.
  double Alpha = 0.05;
  /// CUSUM slack in deviations (shifts below this drift are absorbed).
  double CusumK = 0.5;
  /// CUSUM decision threshold in accumulated deviations.
  double CusumH = 10.0;
  /// Observations consumed to seed the baseline before any alert.
  uint64_t WarmupSamples = 16;
  /// Minimum observations between alerts from one detector.
  uint64_t CooldownSamples = 32;
  /// Trailing window (milliseconds of virtual time) over which governor
  /// decisions are counted for the churn signal.
  double ChurnWindowMs = 250.0;
};

/// Timestamps (nanoseconds, non-decreasing) of the events inside a
/// trailing window, on a ring that grows only when more events fall
/// inside the window than ever before: a steady stream allocates
/// nothing.
class TrailingWindow {
public:
  /// Drops the timestamps before \p Ts - \p WindowNs, adds \p Ts, and
  /// returns how many the window holds.
  size_t add(int64_t Ts, int64_t WindowNs);
  size_t size() const { return Count; }
  void clear() { Head = Count = 0; }

private:
  std::vector<int64_t> Ring; ///< Power-of-two size once used.
  size_t Head = 0;           ///< Oldest timestamp's slot.
  size_t Count = 0;
};

/// One EWMA-baselined two-sided CUSUM over a scalar series; see file
/// comment for the update rule.
class EwmaCusum {
public:
  explicit EwmaCusum(const DetectorConfig &C) : Cfg(C) {}

  /// Outcome of one observation (Fired = threshold crossed).
  struct Step {
    bool Fired = false;
    double Score = 0.0; ///< The CUSUM statistic that crossed.
    int64_t Dir = 0;    ///< +1 upward shift, -1 downward.
  };

  Step observe(double X);

  double mean() const { return Mean; }
  double deviation() const { return Dev; }
  uint64_t samples() const { return N; }

private:
  DetectorConfig Cfg;
  double Mean = 0.0;
  double Dev = 0.0;
  double Pos = 0.0;
  double Neg = 0.0;
  uint64_t N = 0;
  uint64_t SinceAlert = 0;
};

/// The three-signal detector bank; see file comment. Feed every
/// non-alert record in stream order; returned Alert records are fully
/// formed (kind, timestamp, fields) and ready to append to the log.
class DetectorBank {
public:
  explicit DetectorBank(const DetectorConfig &C = {});

  /// Observes one record and returns any alerts it provoked (usually
  /// empty). Alert-kind records are ignored, so the bank may be fed a
  /// stream that already contains its own output.
  std::vector<TelemetryRecord> onRecord(const TelemetryRecord &R);

  uint64_t alertsEmitted() const { return Alerts; }
  const DetectorConfig &config() const { return Cfg; }

private:
  void score(const char *Detector, EwmaCusum &D, double X,
             const TelemetryRecord &Origin,
             std::vector<TelemetryRecord> &Out);

  DetectorConfig Cfg;
  EwmaCusum FrameLatency;
  EwmaCusum EnergyPerFrame;
  EwmaCusum DecisionChurn;
  uint64_t Alerts = 0;

  // energy_per_frame derivation state.
  double LastJoules = -1.0;
  uint64_t FramesPresented = 0;
  uint64_t FramesAtLastSample = 0;

  // decision_churn trailing window.
  TrailingWindow Decisions;
};

} // namespace greenweb

#endif // GREENWEB_TELEMETRY_ANOMALYDETECTOR_H
