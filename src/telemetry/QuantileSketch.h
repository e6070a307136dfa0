//===- telemetry/QuantileSketch.h - Mergeable quantile digest ---*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, mergeable quantile sketch for fleet-scale streaming
/// aggregation: per-app / per-governor frame-latency and energy-per-
/// frame percentiles over thousands of runs without retaining raw
/// samples.
///
/// The digest uses fixed log-domain buckets: a positive value x = f*2^e
/// (f in [1,2), via frexp — no log/pow, only exact IEEE decomposition)
/// lands in sub-bucket j = floor((f-1)*S) of octave e, S = 32 linear
/// sub-buckets per octave. A bucket [2^e*(1+j/S), 2^e*(1+(j+1)/S)) is
/// reported at its midpoint, so the worst-case relative error of a
/// quantile estimate is half the bucket width over its lower bound:
///   |est - true| / true <= 1/(2S) = 1.5625%  (S = 32)
/// and estimates are additionally clamped to the observed [min, max].
///
/// All state is integer bucket counts plus order-insensitive min/max,
/// so merge() is associative and commutative and shard merges replay
/// byte-for-byte in any order — the same property SchedTrace relies on.
/// serialize()/deserialize() round-trip exactly (doubles travel as C99
/// hexfloats), which is what lets a fleet checkpoint resume and still
/// produce byte-identical final aggregates.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_TELEMETRY_QUANTILESKETCH_H
#define GREENWEB_TELEMETRY_QUANTILESKETCH_H

#include <cstdint>
#include <map>
#include <string>

namespace greenweb {

namespace json {
struct Value;
class Writer;
}

/// Fixed-bucket log-domain quantile digest; see the file comment.
class QuantileSketch {
public:
  /// Linear sub-buckets per power-of-two octave. Fixed for every sketch
  /// so merges never need bucket realignment.
  static constexpr int32_t SubBucketsPerOctave = 32;

  /// Folds one sample. Non-finite samples are ignored; zero and
  /// negative samples count into a dedicated zero bucket (latencies and
  /// energies are non-negative, so "<= 0" collapsing to 0 loses
  /// nothing).
  void observe(double X);

  /// Adds another sketch's buckets into this one. Associative and
  /// commutative: any merge order yields bit-identical state.
  void mergeFrom(const QuantileSketch &O);

  /// Estimated value at quantile \p Q in [0, 1]: the midpoint of the
  /// bucket holding rank floor(Q*(count-1)), clamped to the observed
  /// [min, max]. Returns 0 with no observations. Error bound: see file
  /// comment.
  double quantile(double Q) const;

  uint64_t count() const { return Count; }
  uint64_t zeroCount() const { return ZeroCount; }
  double min() const { return Count ? Lo : 0.0; }
  double max() const { return Count ? Hi : 0.0; }

  /// Exact JSON state (integer buckets, hexfloat min/max):
  /// {"s":32,"count":N,"zero":N,"min":"0x...","max":"0x...",
  ///  "buckets":[[key,count],...]} with buckets in ascending key order.
  /// Deterministic: equal states serialize identically.
  void serialize(json::Writer &W) const;
  std::string serialize() const;

  /// The report view: {"count":N,"p50":..,"p90":..,"p99":..,"max":..},
  /// estimates as "%.4f".
  void writeSummary(json::Writer &W) const;

  /// Rebuilds a sketch from serialize() output (parsed). Returns false
  /// (and sets \p Error when given) on malformed state or a sub-bucket
  /// constant mismatch.
  static bool deserialize(const json::Value &V, QuantileSketch &Out,
                          std::string *Error = nullptr);

private:
  uint64_t Count = 0;
  uint64_t ZeroCount = 0;
  double Lo = 0.0;
  double Hi = 0.0;
  /// Sparse bucket counts keyed by octave*S + sub-bucket; ordered so
  /// serialization and quantile walks are deterministic.
  std::map<int32_t, uint64_t> Buckets;
};

} // namespace greenweb

#endif // GREENWEB_TELEMETRY_QUANTILESKETCH_H
