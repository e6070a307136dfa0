//===- telemetry/QuantileSketch.cpp - Mergeable quantile digest -----------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/QuantileSketch.h"

#include "support/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

using namespace greenweb;

namespace {

constexpr int32_t S = QuantileSketch::SubBucketsPerOctave;

/// Octaves outside [-40, 40] saturate into the edge buckets: values
/// below ~9e-13 or above ~2.2e12 are beyond anything the simulator
/// measures (milliseconds, millijoules), and a bounded key range keeps
/// hostile inputs from growing the map without bound.
constexpr int32_t MinKey = -40 * S;
constexpr int32_t MaxKey = 40 * S + (S - 1);

/// Bucket midpoint: key = octave*S + j covers [2^e*(1+j/S),
/// 2^e*(1+(j+1)/S)). ldexp and the linear arithmetic are exact IEEE
/// operations, so the representative is bit-stable everywhere.
double bucketMid(int32_t Key) {
  int32_t Oct = Key >= 0 ? Key / S : -((-Key + S - 1) / S);
  int32_t J = Key - Oct * S;
  double LoB = std::ldexp(1.0 + double(J) / S, Oct);
  double HiB = std::ldexp(1.0 + double(J + 1) / S, Oct);
  return 0.5 * (LoB + HiB);
}

} // namespace

void QuantileSketch::observe(double X) {
  if (!std::isfinite(X))
    return;
  double V = X <= 0.0 ? 0.0 : X;
  if (Count == 0) {
    Lo = Hi = V;
  } else {
    Lo = std::min(Lo, V);
    Hi = std::max(Hi, V);
  }
  ++Count;
  if (V == 0.0) {
    ++ZeroCount;
    return;
  }
  int E;
  double M = std::frexp(V, &E); // V = M * 2^E, M in [0.5, 1).
  double F = M * 2.0;           // F in [1, 2), V = F * 2^(E-1).
  int32_t J = int32_t((F - 1.0) * double(S));
  J = std::min(J, S - 1);
  int32_t Key = (E - 1) * S + J;
  Key = std::min(std::max(Key, MinKey), MaxKey);
  ++Buckets[Key];
}

void QuantileSketch::mergeFrom(const QuantileSketch &O) {
  if (O.Count == 0)
    return;
  if (Count == 0) {
    Lo = O.Lo;
    Hi = O.Hi;
  } else {
    Lo = std::min(Lo, O.Lo);
    Hi = std::max(Hi, O.Hi);
  }
  Count += O.Count;
  ZeroCount += O.ZeroCount;
  for (const auto &[Key, N] : O.Buckets)
    Buckets[Key] += N;
}

double QuantileSketch::quantile(double Q) const {
  if (Count == 0)
    return 0.0;
  Q = std::min(1.0, std::max(0.0, Q));
  uint64_t Rank = uint64_t(Q * double(Count - 1));
  if (Rank < ZeroCount)
    return 0.0;
  uint64_t Cum = ZeroCount;
  for (const auto &[Key, N] : Buckets) {
    Cum += N;
    if (Rank < Cum)
      return std::min(std::max(bucketMid(Key), Lo), Hi);
  }
  return Hi;
}

void QuantileSketch::serialize(json::Writer &W) const {
  W.beginObject().key("s").integer(S).key("count").uinteger(Count);
  W.key("zero").uinteger(ZeroCount).key("min").hexfloat(min());
  W.key("max").hexfloat(max()).key("buckets").beginArray();
  for (const auto &[Key, N] : Buckets)
    W.beginArray().integer(Key).uinteger(N).endArray();
  W.endArray().endObject();
}

std::string QuantileSketch::serialize() const {
  std::string Out;
  json::Writer W(Out);
  serialize(W);
  return Out;
}

void QuantileSketch::writeSummary(json::Writer &W) const {
  W.beginObject().key("count").uinteger(Count);
  W.key("p50").fixed(quantile(0.5), 4).key("p90").fixed(quantile(0.9), 4);
  W.key("p99").fixed(quantile(0.99), 4).key("max").fixed(max(), 4);
  W.endObject();
}

bool QuantileSketch::deserialize(const json::Value &V, QuantileSketch &Out,
                                 std::string *Error) {
  json::Reader R(V, "sketch");
  if (R.count("s", 0) != S)
    R.fail("sketch sub-bucket constant mismatch");
  QuantileSketch Q;
  Q.Count = R.count("count", 0);
  Q.ZeroCount = R.count("zero", 0);
  Q.Lo = R.hexfloat("min", 0.0);
  Q.Hi = R.hexfloat("max", 0.0);
  // Every N is <= 2^53 and Sum stops at Count <= 2^53, so it never wraps.
  uint64_t Sum = Q.ZeroCount;
  const json::Value *Buckets = R.array("buckets");
  for (size_t I = 0; Buckets && I < Buckets->Arr.size(); ++I) {
    const json::Value &Entry = Buckets->Arr[I];
    if (!Entry.isArray() || Entry.Arr.size() != 2)
      R.fail("malformed sketch bucket entry");
    if (!R.ok() || Sum > Q.Count)
      break;
    auto Key = int32_t(R.integer(Entry.Arr[0], "bucket key", MinKey, MaxKey));
    uint64_t N = R.count(Entry.Arr[1], "bucket count");
    if (!Q.Buckets.empty() && Key <= Q.Buckets.rbegin()->first)
      R.fail("sketch bucket keys are not strictly ascending");
    Q.Buckets.emplace_hint(Q.Buckets.end(), Key, N);
    Sum += N;
  }
  if (Sum != Q.Count)
    R.fail("sketch bucket counts do not sum to the sample count");
  if (R.ok())
    Out = std::move(Q);
  return R.finish(Error);
}
