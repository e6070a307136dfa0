//===- tests/telemetry/QuantileSketchTest.cpp - sketch contract tests -----===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/QuantileSketch.h"

#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

using namespace greenweb;

namespace {

TEST(QuantileSketchTest, EmptySketchIsZero) {
  QuantileSketch Q;
  EXPECT_EQ(Q.count(), 0u);
  EXPECT_EQ(Q.quantile(0.5), 0.0);
  EXPECT_EQ(Q.min(), 0.0);
  EXPECT_EQ(Q.max(), 0.0);
}

TEST(QuantileSketchTest, SingleValueClampedExactly) {
  QuantileSketch Q;
  Q.observe(13.7);
  // Estimates clamp to the observed [min, max], so with one sample
  // every quantile is the sample itself.
  EXPECT_EQ(Q.quantile(0.0), 13.7);
  EXPECT_EQ(Q.quantile(0.5), 13.7);
  EXPECT_EQ(Q.quantile(1.0), 13.7);
}

TEST(QuantileSketchTest, DocumentedRelativeErrorBound) {
  // The documented bound: with S = 32 sub-buckets per octave, any
  // quantile estimate sits within 1/(2S) = 1.5625% of the true ranked
  // sample (plus min/max clamping, which only helps).
  std::mt19937_64 Rng(42);
  std::uniform_real_distribution<double> LogU(-3.0, 6.0); // ~0.05..400
  std::vector<double> Values;
  QuantileSketch Q;
  for (int I = 0; I < 5000; ++I) {
    double V = std::exp(LogU(Rng));
    Values.push_back(V);
    Q.observe(V);
  }
  std::sort(Values.begin(), Values.end());
  const double Bound = 1.0 / (2.0 * QuantileSketch::SubBucketsPerOctave);
  for (double P : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    double Exact = Values[size_t(P * (Values.size() - 1))];
    double Est = Q.quantile(P);
    EXPECT_LE(std::abs(Est - Exact) / Exact, Bound)
        << "quantile " << P << ": estimate " << Est << " vs exact "
        << Exact;
  }
}

TEST(QuantileSketchTest, ZeroNegativeAndNonFiniteHandling) {
  QuantileSketch Q;
  Q.observe(0.0);
  Q.observe(-4.0);
  Q.observe(std::numeric_limits<double>::quiet_NaN());
  Q.observe(std::numeric_limits<double>::infinity());
  Q.observe(2.0);
  EXPECT_EQ(Q.count(), 3u); // Non-finite ignored; <= 0 counts as zero.
  EXPECT_EQ(Q.zeroCount(), 2u);
  // Rank 0 and 1 land in the zero bucket, rank 2 in the 2.0 bucket.
  EXPECT_EQ(Q.quantile(0.0), 0.0);
  EXPECT_EQ(Q.quantile(1.0), 2.0);
}

TEST(QuantileSketchTest, MergeMatchesSingleSketchExactly) {
  std::mt19937_64 Rng(7);
  std::uniform_real_distribution<double> U(0.001, 2000.0);
  std::vector<double> Values;
  for (int I = 0; I < 2000; ++I)
    Values.push_back(U(Rng));

  QuantileSketch Single;
  for (double V : Values)
    Single.observe(V);

  // Randomized shard-permutation: scatter the samples over shards in a
  // shuffled order, then merge the shards in another shuffled order.
  // Integer bucket counts make the result bit-identical regardless.
  for (uint64_t Trial = 0; Trial < 5; ++Trial) {
    std::mt19937_64 TrialRng(100 + Trial);
    std::vector<double> Shuffled = Values;
    std::shuffle(Shuffled.begin(), Shuffled.end(), TrialRng);
    const size_t NumShards = 1 + Trial * 3;
    std::vector<QuantileSketch> Shards(NumShards);
    for (size_t I = 0; I < Shuffled.size(); ++I)
      Shards[I % NumShards].observe(Shuffled[I]);
    std::vector<size_t> Order(NumShards);
    for (size_t I = 0; I < NumShards; ++I)
      Order[I] = I;
    std::shuffle(Order.begin(), Order.end(), TrialRng);
    QuantileSketch Merged;
    for (size_t I : Order)
      Merged.mergeFrom(Shards[I]);
    EXPECT_EQ(Merged.serialize(), Single.serialize())
        << "shard permutation trial " << Trial;
  }
}

TEST(QuantileSketchTest, MergeIsAssociative) {
  QuantileSketch A, B, C;
  for (double V : {1.0, 5.0, 9.0})
    A.observe(V);
  for (double V : {0.5, 64.0})
    B.observe(V);
  for (double V : {3.14, 1e-6, 7e8})
    C.observe(V);

  QuantileSketch LeftFirst; // (A + B) + C
  LeftFirst.mergeFrom(A);
  LeftFirst.mergeFrom(B);
  LeftFirst.mergeFrom(C);
  QuantileSketch RightFirst; // A + (B + C)
  QuantileSketch BC;
  BC.mergeFrom(B);
  BC.mergeFrom(C);
  RightFirst.mergeFrom(A);
  RightFirst.mergeFrom(BC);
  EXPECT_EQ(LeftFirst.serialize(), RightFirst.serialize());
}

TEST(QuantileSketchTest, SerializeRoundTripsExactly) {
  QuantileSketch Q;
  std::mt19937_64 Rng(11);
  std::uniform_real_distribution<double> U(1e-9, 1e9);
  for (int I = 0; I < 300; ++I)
    Q.observe(U(Rng));
  Q.observe(0.0);

  std::string Text = Q.serialize();
  auto Doc = json::parse(Text);
  ASSERT_TRUE(Doc.has_value());
  QuantileSketch Back;
  std::string Error;
  ASSERT_TRUE(QuantileSketch::deserialize(*Doc, Back, &Error)) << Error;
  EXPECT_EQ(Back.serialize(), Text);
  EXPECT_EQ(Back.count(), Q.count());
  EXPECT_EQ(Back.min(), Q.min());
  EXPECT_EQ(Back.max(), Q.max());
}

TEST(QuantileSketchTest, DeserializeRejectsInconsistentCounts) {
  QuantileSketch Q;
  Q.observe(1.0);
  Q.observe(2.0);
  std::string Text = Q.serialize();
  // Tamper: claim a higher sample count than the buckets hold.
  size_t Pos = Text.find("\"count\":2");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos, 9, "\"count\":9");
  auto Doc = json::parse(Text);
  ASSERT_TRUE(Doc.has_value());
  QuantileSketch Back;
  std::string Error;
  EXPECT_FALSE(QuantileSketch::deserialize(*Doc, Back, &Error));
  EXPECT_NE(Error.find("sum"), std::string::npos) << Error;

  // Counts must be exact integers in [0, 2^53] and keys must lie in the
  // saturated octave range, checked before any integer cast: a bucket
  // count of 1.5 used to truncate to 1 and match "count":1, and a key
  // of 1e308 was cast to int32_t before its range check.
  struct Case {
    const char *Count;
    const char *Buckets;
    const char *Expect;
  };
  for (const Case &C : {
           Case{"1", "[[0,1.5]]", "bucket count"},
           Case{"1", "[[0,-1]]", "bucket count"},
           Case{"1", "[[0,1e300]]", "bucket count"},
           Case{"1", "[[1e308,1]]", "\"bucket key\""},
           Case{"1", "[[-1e308,1]]", "\"bucket key\""},
           Case{"1", "[[0.5,1]]", "\"bucket key\""},
           Case{"1", "[[1312,1]]", "\"bucket key\""},
           Case{"1", "[[-1281,1]]", "\"bucket key\""},
           Case{"2", "[[32,1],[0,1]]", "ascending"},
           Case{"1.5", "[[0,1]]", "field \"count\""},
           Case{"-1", "[]", "field \"count\""},
           Case{"1e17", "[[0,1]]", "field \"count\""},
       }) {
    std::string Tampered =
        std::string("{\"s\":32,\"count\":") + C.Count +
        ",\"zero\":0,\"min\":\"0x1p+0\",\"max\":\"0x1p+1\","
        "\"buckets\":" +
        C.Buckets + "}";
    auto Bad = json::parse(Tampered);
    ASSERT_TRUE(Bad.has_value()) << Tampered;
    Error.clear();
    EXPECT_FALSE(QuantileSketch::deserialize(*Bad, Back, &Error))
        << Tampered;
    EXPECT_NE(Error.find(C.Expect), std::string::npos)
        << Tampered << ": " << Error;
  }
}

} // namespace
