//===- tests/profiling/ProfilerTest.cpp - gw_prof tests -------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profiling/Profiler.h"

#include "support/Json.h"

#include <chrono>
#include <functional>
#include <gtest/gtest.h>
#include <sstream>
#include <thread>

using namespace greenweb;

namespace {

const prof::ProfileNode *findNode(const prof::Profile &P,
                                  const std::string &Path) {
  for (const prof::ProfileNode &N : P.Nodes)
    if (N.Path == Path)
      return &N;
  return nullptr;
}

class ProfilerTest : public ::testing::Test {
protected:
  void SetUp() override {
    prof::stop();
    prof::reset();
  }
  void TearDown() override {
    prof::stop();
    prof::reset();
  }
};

TEST_F(ProfilerTest, DisabledScopesRecordNothing) {
  ASSERT_FALSE(prof::enabled());
  for (int I = 0; I < 1000; ++I) {
    GW_PROF_SCOPE("should-not-appear");
  }
  prof::Profile P = prof::collect();
  EXPECT_EQ(P.Events, 0u);
  EXPECT_TRUE(P.Nodes.empty());
}

// The acceptance bar from the tentpole: a disabled scope must cost a
// single branch. That is not literally countable, so assert the
// observable consequences — nothing recorded, and a generous per-scope
// wall bound that any single-branch implementation beats by orders of
// magnitude while a mutex/alloc on the path would blow through.
TEST_F(ProfilerTest, DisabledScopeIsEffectivelyFree) {
  constexpr int Iters = 2'000'000;
  auto Start = std::chrono::steady_clock::now();
  for (int I = 0; I < Iters; ++I) {
    GW_PROF_SCOPE("disabled-cost");
  }
  double Ns = std::chrono::duration<double, std::nano>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
  EXPECT_LT(Ns / Iters, 100.0) << "disabled GW_PROF_SCOPE too expensive";
  EXPECT_EQ(prof::collect().Events, 0u);
}

TEST_F(ProfilerTest, NestedScopesAggregateDeterministically) {
  prof::start();
  for (int I = 0; I < 10; ++I) {
    GW_PROF_SCOPE("outer");
    for (int J = 0; J < 3; ++J) {
      GW_PROF_SCOPE("inner");
    }
  }
  prof::stop();
  prof::Profile P = prof::collect();

  const prof::ProfileNode *Outer = findNode(P, "outer");
  const prof::ProfileNode *Inner = findNode(P, "outer;inner");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Outer->Count, 10u);
  EXPECT_EQ(Inner->Count, 30u);
  EXPECT_EQ(Outer->Depth, 0);
  EXPECT_EQ(Inner->Depth, 1);
  EXPECT_GE(Outer->InclNs, Inner->InclNs);
  // Self = inclusive minus instrumented children.
  EXPECT_LE(Outer->SelfNs, Outer->InclNs);
  EXPECT_EQ(P.Events, 2u * (10u + 30u));
}

TEST_F(ProfilerTest, RecursiveScopesNestByDepth) {
  std::function<void(int)> Recurse = [&](int Depth) {
    GW_PROF_SCOPE("recurse");
    if (Depth > 0)
      Recurse(Depth - 1);
  };
  prof::start();
  Recurse(2);
  prof::stop();
  prof::Profile P = prof::collect();
  EXPECT_NE(findNode(P, "recurse"), nullptr);
  EXPECT_NE(findNode(P, "recurse;recurse"), nullptr);
  EXPECT_NE(findNode(P, "recurse;recurse;recurse"), nullptr);
}

TEST_F(ProfilerTest, MultiThreadRingsMergeByPath) {
  constexpr int Threads = 4;
  constexpr int PerThread = 50'000; // Crosses the 65536-slot ring once.
  prof::start();
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([] {
      for (int I = 0; I < PerThread; ++I) {
        GW_PROF_SCOPE("worker");
      }
    });
  for (std::thread &T : Pool)
    T.join();
  prof::stop();
  prof::Profile P = prof::collect();

  const prof::ProfileNode *Worker = findNode(P, "worker");
  ASSERT_NE(Worker, nullptr);
  EXPECT_EQ(Worker->Count, uint64_t(Threads) * PerThread);
  EXPECT_EQ(P.Events, 2u * uint64_t(Threads) * PerThread);
}

TEST_F(ProfilerTest, OverheadCalibrationIsBounded) {
  double Ns = prof::calibrateOverheadNsPerEvent();
  EXPECT_GT(Ns, 0.0);
  EXPECT_LT(Ns, 10'000.0); // Generous even for a slow CI host.

  prof::start();
  {
    GW_PROF_SCOPE("calibrated");
  }
  prof::stop();
  prof::Profile P = prof::collect();
  EXPECT_GT(P.OverheadNsPerEvent, 0.0);
  EXPECT_DOUBLE_EQ(P.selfOverheadNs(),
                   P.OverheadNsPerEvent * double(P.Events));
}

TEST_F(ProfilerTest, CollapsedStacksFormat) {
  auto SpinBriefly = [] {
    auto Until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(200);
    volatile uint64_t Sink = 0;
    while (std::chrono::steady_clock::now() < Until)
      Sink = Sink + 1;
  };
  prof::start();
  {
    GW_PROF_SCOPE("a");
    {
      GW_PROF_SCOPE("b");
      SpinBriefly(); // Guarantees non-zero self time for "a;b".
    }
    SpinBriefly(); // ... and for "a" itself.
  }
  prof::stop();
  prof::Profile P = prof::collect();
  std::string Collapsed = prof::collapsedStacks(P);

  // "path space weight" lines, weights positive ints (zero-self paths
  // are omitted — they carry no flamegraph area).
  std::istringstream Lines(Collapsed);
  std::string Line;
  size_t Count = 0;
  bool SawNested = false;
  while (std::getline(Lines, Line)) {
    if (Line.empty())
      continue;
    ++Count;
    size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    EXPECT_GT(std::stoull(Line.substr(Space + 1)), 0u) << Line;
    SawNested |= Line.compare(0, Space, "a;b") == 0;
  }
  EXPECT_LE(Count, P.Nodes.size());
  EXPECT_GE(Count, 2u);
  EXPECT_TRUE(SawNested) << Collapsed;
}

TEST_F(ProfilerTest, PerfettoHostTrackIsValidJson) {
  prof::start();
  {
    GW_PROF_SCOPE("span-a");
    GW_PROF_SCOPE("span-b");
  }
  prof::stop();
  prof::Profile P = prof::collect();
  ASSERT_FALSE(P.Spans.empty());

  // The host tracks join an event array that already holds events.
  std::string Doc;
  json::Writer W(Doc);
  W.beginArray().beginObject().endObject();
  prof::appendHostTraceEvents(W, P);
  W.endArray();
  ASSERT_EQ(Doc.substr(0, 5), "[{},\n");
  EXPECT_TRUE(json::parse(Doc)) << Doc.substr(0, 400);
  EXPECT_NE(Doc.find("\"pid\":9000"), std::string::npos);
  EXPECT_NE(Doc.find("gw-prof host time"), std::string::npos);
}

TEST_F(ProfilerTest, SpanRetentionCapsTimeline) {
  prof::setSpanRetention(10);
  prof::start();
  for (int I = 0; I < 100; ++I) {
    GW_PROF_SCOPE("capped");
  }
  prof::stop();
  prof::Profile P = prof::collect();
  EXPECT_LE(P.Spans.size(), 10u);
  EXPECT_EQ(P.Spans.size() + P.DroppedSpans, 100u);
  // Aggregation is unaffected by retention.
  const prof::ProfileNode *N = findNode(P, "capped");
  ASSERT_NE(N, nullptr);
  EXPECT_EQ(N->Count, 100u);
  prof::setSpanRetention(100000);
}

TEST_F(ProfilerTest, SamplerCapturesLiveStacks) {
  prof::start();
  prof::startSampler(200); // 5 kHz.
  {
    GW_PROF_SCOPE("sampled-hot");
    auto Until = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(50);
    volatile uint64_t Sink = 0;
    while (std::chrono::steady_clock::now() < Until)
      Sink = Sink + 1;
  }
  prof::stopSampler();
  prof::stop();
  prof::Profile P = prof::collect();
  ASSERT_FALSE(P.Samples.empty());
  bool SawHot = false;
  for (const prof::SampledStack &S : P.Samples)
    SawHot |= S.Path.find("sampled-hot") != std::string::npos;
  EXPECT_TRUE(SawHot);
  EXPECT_FALSE(prof::collapsedSampleStacks(P).empty());
}

TEST_F(ProfilerTest, ReportTableMentionsHotPath) {
  prof::start();
  {
    GW_PROF_SCOPE("tabled");
  }
  prof::stop();
  prof::Profile P = prof::collect();
  std::string Table = prof::reportTable(P);
  EXPECT_NE(Table.find("tabled"), std::string::npos);
  EXPECT_NE(Table.find("gw-prof host profile"), std::string::npos);
}

} // namespace
