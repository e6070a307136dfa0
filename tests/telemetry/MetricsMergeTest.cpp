//===- tests/telemetry/MetricsMergeTest.cpp - merge edge cases ------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Edge cases of MetricsRegistry / Histogram merging that the streaming
// aggregation layer leans on: empty merges, single-sample quantiles,
// and cross-run merge associativity. A Histogram is a RunningStat plus
// a QuantileSketch, so merged state is compared through its count,
// summary and quantiles.
//
//===----------------------------------------------------------------------===//

#include "telemetry/MetricsRegistry.h"

#include <gtest/gtest.h>

using namespace greenweb;

TEST(HistogramMergeTest, EmptyIntoEmptyStaysEmpty) {
  Histogram A;
  Histogram B;
  A.mergeFrom(B);
  EXPECT_EQ(A.summary().count(), 0u);
  EXPECT_EQ(A.sketch().count(), 0u);
  EXPECT_EQ(A.quantile(0.5), 0.0);
  EXPECT_EQ(A.quantile(0.99), 0.0);
}

TEST(HistogramMergeTest, EmptyMergeIsIdentityBothWays) {
  Histogram Filled;
  for (double X : {0.5, 3.0, 42.0, 250.0})
    Filled.observe(X);
  std::string Before = Filled.sketch().serialize();
  double P50 = Filled.quantile(0.5), P99 = Filled.quantile(0.99);

  // Merging an empty histogram in changes nothing.
  Histogram Empty;
  Filled.mergeFrom(Empty);
  EXPECT_EQ(Filled.sketch().serialize(), Before);
  EXPECT_EQ(Filled.summary().count(), 4u);
  EXPECT_DOUBLE_EQ(Filled.quantile(0.5), P50);
  EXPECT_DOUBLE_EQ(Filled.quantile(0.99), P99);

  // Merging into an empty histogram adopts the other side wholesale.
  Empty.mergeFrom(Filled);
  EXPECT_EQ(Empty.sketch().serialize(), Before);
  EXPECT_EQ(Empty.summary().count(), 4u);
  EXPECT_DOUBLE_EQ(Empty.summary().min(), 0.5);
  EXPECT_DOUBLE_EQ(Empty.summary().max(), 250.0);
}

TEST(HistogramMergeTest, SingleSampleQuantilesCollapseToTheSample) {
  Histogram H;
  H.observe(7.0);
  // With one observation every quantile is that observation: the
  // sketch's bucket midpoint is clamped to [min, max] = [7, 7].
  EXPECT_DOUBLE_EQ(H.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(H.quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(H.quantile(0.99), 7.0);
  EXPECT_DOUBLE_EQ(H.quantile(1.0), 7.0);
}

TEST(HistogramMergeTest, SingleSampleOverflowBucketQuantiles) {
  Histogram H;
  // Beyond the sketch's top octave (~2.2e12): the sample saturates into
  // the edge bucket, the sketch's overflow bucket, and the [min, max]
  // clamp still returns it exactly.
  H.observe(5e12);
  EXPECT_DOUBLE_EQ(H.quantile(0.5), 5e12);
  EXPECT_DOUBLE_EQ(H.quantile(0.99), 5e12);
  EXPECT_DOUBLE_EQ(H.summary().max(), 5e12);
}

TEST(HistogramMergeTest, MergeIsAssociativeOnCountsAndQuantiles) {
  auto Make = [](std::initializer_list<double> Xs) {
    Histogram H;
    for (double X : Xs)
      H.observe(X);
    return H;
  };
  Histogram A = Make({0.3, 2.0, 7.0});
  Histogram B = Make({4.0, 30.0});
  Histogram C = Make({0.9, 600.0, 80.0});

  // (A + B) + C
  Histogram Left = Make({});
  Left.mergeFrom(A);
  Left.mergeFrom(B);
  Left.mergeFrom(C);
  // A + (B + C)
  Histogram Bc = Make({});
  Bc.mergeFrom(B);
  Bc.mergeFrom(C);
  Histogram Right = Make({});
  Right.mergeFrom(A);
  Right.mergeFrom(Bc);

  EXPECT_EQ(Left.sketch().serialize(), Right.sketch().serialize());
  EXPECT_EQ(Left.summary().count(), Right.summary().count());
  EXPECT_DOUBLE_EQ(Left.summary().min(), Right.summary().min());
  EXPECT_DOUBLE_EQ(Left.summary().max(), Right.summary().max());
  // Quantiles only read sketch buckets + min/max, so they agree exactly.
  for (double Q : {0.25, 0.5, 0.9, 0.99})
    EXPECT_DOUBLE_EQ(Left.quantile(Q), Right.quantile(Q));
}

TEST(MetricsRegistryMergeTest, CrossRunMergeMatchesSequentialFold) {
  // Three "runs" fold into one registry two different ways; every
  // integer-exact surface must agree.
  auto Run = [](int Seed) {
    MetricsRegistry M;
    M.counter("qos.violations").add(unsigned(Seed * 3));
    M.gauge("frames").set(double(60 * Seed));
    Histogram &H = M.histogram("latency_ms");
    for (int I = 0; I < Seed * 4; ++I)
      H.observe(double(I % 60));
    return M;
  };
  MetricsRegistry R1 = Run(1), R2 = Run(2), R3 = Run(3);

  MetricsRegistry Left; // (R1 + R2) + R3
  Left.mergeFrom(R1);
  Left.mergeFrom(R2);
  Left.mergeFrom(R3);
  MetricsRegistry Bc; // R1 + (R2 + R3)
  Bc.mergeFrom(R2);
  Bc.mergeFrom(R3);
  MetricsRegistry Right;
  Right.mergeFrom(R1);
  Right.mergeFrom(Bc);

  ASSERT_NE(Left.findCounter("qos.violations"), nullptr);
  EXPECT_EQ(Left.findCounter("qos.violations")->value(),
            Right.findCounter("qos.violations")->value());
  EXPECT_EQ(Left.findCounter("qos.violations")->value(), 18u);
  // Gauges take the last writer in both orders (R3's value).
  EXPECT_DOUBLE_EQ(Left.findGauge("frames")->value(),
                   Right.findGauge("frames")->value());
  const Histogram *Hl = Left.findHistogram("latency_ms");
  const Histogram *Hr = Right.findHistogram("latency_ms");
  ASSERT_NE(Hl, nullptr);
  ASSERT_NE(Hr, nullptr);
  EXPECT_EQ(Hl->sketch().serialize(), Hr->sketch().serialize());
  EXPECT_EQ(Hl->summary().count(), 24u);
  for (double Q : {0.5, 0.9, 0.99})
    EXPECT_DOUBLE_EQ(Hl->quantile(Q), Hr->quantile(Q));
}

TEST(MetricsRegistryMergeTest, MergeIntoEmptyCreatesAllMetrics) {
  MetricsRegistry Src;
  Src.counter("a").add(7);
  Src.histogram("h").observe(0.5);
  MetricsRegistry Dst;
  Dst.mergeFrom(Src);
  ASSERT_NE(Dst.findCounter("a"), nullptr);
  EXPECT_EQ(Dst.findCounter("a")->value(), 7u);
  ASSERT_NE(Dst.findHistogram("h"), nullptr);
  EXPECT_EQ(Dst.findHistogram("h")->summary().count(), 1u);
  // find* never creates: absent names stay absent.
  EXPECT_EQ(Dst.findCounter("missing"), nullptr);
  EXPECT_EQ(Dst.findGauge("missing"), nullptr);
  EXPECT_EQ(Dst.findHistogram("missing"), nullptr);
}
