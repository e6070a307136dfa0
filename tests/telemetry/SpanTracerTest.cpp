//===- tests/telemetry/SpanTracerTest.cpp - span tracer tests ----------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/SpanTracer.h"

#include "sim/SimThread.h"
#include "sim/Simulator.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

using namespace greenweb;

namespace {

/// Telemetry hub over a hand-advanced clock.
struct ClockedHub {
  TimePoint Now = TimePoint::origin();
  Telemetry Tel{[this] { return Now; }};

  void advanceMs(double Ms) { Now = Now + Duration::fromMillis(Ms); }
};

/// Fixed-speed CPU stub (1 GHz).
class FixedCpu : public CpuModel {
public:
  double effectiveHz(unsigned) const override { return 1e9; }
  void onThreadActivity(unsigned, bool) override {}
};

const TelemetryRecord *lastSpanRecord(const Telemetry &Tel) {
  auto Spans = Tel.log().byKind(TelemetryEventKind::Span);
  return Spans.empty() ? nullptr : Spans.back();
}

} // namespace

TEST(SpanTracerTest, BeginEndRecordsSpanWithTimes) {
  ClockedHub Hub;
  SpanTracer &Tr = Hub.Tel.spans();
  int64_t Id = Tr.begin("work", "main", /*Root=*/7, /*Frame=*/3,
                        /*Parent=*/0);
  ASSERT_NE(Id, 0);
  EXPECT_EQ(Tr.openCount(), 1u);
  Hub.advanceMs(2.5);
  Tr.end(Id);
  EXPECT_EQ(Tr.openCount(), 0u);

  const SpanTracer::Span *S = Tr.find(Id);
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Name, "work");
  EXPECT_EQ(S->Thread, "main");
  EXPECT_EQ(S->Root, 7);
  EXPECT_EQ(S->Frame, 3);
  EXPECT_DOUBLE_EQ((S->End - S->Begin).millis(), 2.5);

  const TelemetryRecord *R = lastSpanRecord(Hub.Tel);
  ASSERT_NE(R, nullptr);
  const CompletedSpanRecord &C = R->as<CompletedSpanRecord>();
  EXPECT_EQ(C.Id, Id);
  EXPECT_EQ(C.Root, 7);
  EXPECT_EQ(C.Frame, 3);
  EXPECT_DOUBLE_EQ(C.DurMs, 2.5);
  EXPECT_EQ(C.Open, 0);
}

TEST(SpanTracerTest, ChildInheritsRootAndFrameFromParent) {
  ClockedHub Hub;
  SpanTracer &Tr = Hub.Tel.spans();
  int64_t Parent = Tr.begin("parent", "main", 42, 9, /*Parent=*/0);
  int64_t Prev = Tr.setCurrent(Parent);
  // UseCurrent parent + zero root/frame -> everything inherited.
  int64_t Child = Tr.begin("child", "main");
  const SpanTracer::Span *S = Tr.find(Child);
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Parent, Parent);
  EXPECT_EQ(S->Root, 42);
  EXPECT_EQ(S->Frame, 9);
  // Explicit values win over inheritance.
  int64_t Override = Tr.begin("override", "main", 5, 0, Parent);
  EXPECT_EQ(Tr.find(Override)->Root, 5);
  EXPECT_EQ(Tr.find(Override)->Frame, 9);
  Tr.setCurrent(Prev);
}

TEST(SpanTracerTest, OrphanSpanHasNoParentOrRoot) {
  ClockedHub Hub;
  SpanTracer &Tr = Hub.Tel.spans();
  // No ambient context: UseCurrent resolves to 0.
  int64_t Id = Tr.begin("orphan", "main");
  const SpanTracer::Span *S = Tr.find(Id);
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Parent, 0);
  EXPECT_EQ(S->Root, 0);
  EXPECT_EQ(S->Frame, 0);
}

TEST(SpanTracerTest, ZeroLengthSpanRecorded) {
  ClockedHub Hub;
  SpanTracer &Tr = Hub.Tel.spans();
  int64_t Id = Tr.begin("marker", "governor");
  Tr.end(Id);
  const TelemetryRecord *R = lastSpanRecord(Hub.Tel);
  ASSERT_NE(R, nullptr);
  EXPECT_DOUBLE_EQ(R->as<CompletedSpanRecord>().DurMs, 0.0);
}

TEST(SpanTracerTest, FinishAllClosesOpenSpansAsTruncated) {
  ClockedHub Hub;
  SpanTracer &Tr = Hub.Tel.spans();
  int64_t A = Tr.begin("open-a", "main");
  int64_t Closed = Tr.begin("closed", "main");
  Tr.end(Closed);
  Hub.advanceMs(1.0);
  Tr.setCurrent(A);
  EXPECT_EQ(Tr.openCount(), 1u);
  Tr.finishAll();
  EXPECT_EQ(Tr.openCount(), 0u);
  EXPECT_EQ(Tr.current(), 0);
  // The flushed span's record carries the truncation marker; the span
  // closed normally earlier does not.
  int64_t OpenMarks = 0;
  for (const TelemetryRecord *R :
       Hub.Tel.log().byKind(TelemetryEventKind::Span))
    OpenMarks += R->as<CompletedSpanRecord>().Open;
  EXPECT_EQ(OpenMarks, 1);
  EXPECT_DOUBLE_EQ(Tr.find(A)->End.millis(), 1.0);
  // Idempotent: nothing left to close.
  size_t Records = Hub.Tel.log().size();
  Tr.finishAll();
  EXPECT_EQ(Hub.Tel.log().size(), Records);
}

TEST(SpanTracerTest, LogCapacityZeroDisablesTracing) {
  ClockedHub Hub;
  Hub.Tel.setLogCapacity(0);
  SpanTracer &Tr = Hub.Tel.spans();
  EXPECT_FALSE(Tr.tracingEnabled());
  EXPECT_EQ(Tr.begin("ignored", "main"), 0);
  EXPECT_TRUE(Tr.spans().empty());
  Tr.end(0); // No-op, must not crash.
}

TEST(SpanTracerTest, CappedLogDropsRecordsButSpansStillClose) {
  ClockedHub Hub;
  Hub.Tel.setLogCapacity(1);
  SpanTracer &Tr = Hub.Tel.spans();
  int64_t A = Tr.begin("a", "main");
  int64_t B = Tr.begin("b", "main", 0, 0, /*Parent=*/0);
  Tr.end(A);
  Tr.end(B);
  // Both spans closed in the tracer even though only one record fit.
  EXPECT_EQ(Tr.openCount(), 0u);
  EXPECT_EQ(Tr.spans().size(), 2u);
  EXPECT_EQ(Hub.Tel.log().size(), 1u);
  EXPECT_GE(
      Hub.Tel.metrics().counter("telemetry.dropped_records").value(), 1u);
}

TEST(SpanTracerTest, SimulatorEventCapturesAndRestoresContext) {
  Simulator Sim;
  Telemetry Tel;
  Sim.setTelemetry(&Tel);
  SpanTracer &Tr = Tel.spans();

  int64_t Outer = Tr.begin("outer", "main");
  Tr.setCurrent(Outer);
  int64_t SeenInside = -1;
  // The event inherits the context active at scheduling time, even
  // though the context changes before it fires.
  Sim.schedule(Duration::milliseconds(5),
               [&] { SeenInside = Tr.current(); });
  Tr.setCurrent(0);
  Tr.end(Outer);

  int64_t SeenUnrelated = -1;
  Sim.schedule(Duration::milliseconds(6),
               [&] { SeenUnrelated = Tr.current(); });
  Sim.run();
  EXPECT_EQ(SeenInside, Outer);
  EXPECT_EQ(SeenUnrelated, 0);
  EXPECT_EQ(Tr.current(), 0);
}

TEST(SpanTracerTest, SimThreadTasksProduceLinkedSpans) {
  Simulator Sim;
  Telemetry Tel;
  Sim.setTelemetry(&Tel);
  FixedCpu Cpu;
  SimThread Thread(Sim, Cpu, "worker", 0);
  SpanTracer &Tr = Tel.spans();

  int64_t Ambient = Tr.begin("dispatch", "inputs", /*Root=*/11);
  Tr.setCurrent(Ambient);
  SimTask Outer;
  Outer.Label = "outer-task";
  Outer.Cost.Cycles = 1e6;
  Outer.OnComplete = [&] {
    // Work posted from a task's completion descends from that task.
    SimTask Inner;
    Inner.Label = "inner-task";
    Inner.Cost.Cycles = 1e6;
    Thread.post(std::move(Inner));
  };
  Thread.post(std::move(Outer));
  Tr.setCurrent(0);
  Tr.end(Ambient);
  Sim.run();

  const SpanTracer::Span *OuterSpan = nullptr, *InnerSpan = nullptr;
  for (const SpanTracer::Span &S : Tr.spans()) {
    if (S.Name == "outer-task")
      OuterSpan = &S;
    if (S.Name == "inner-task")
      InnerSpan = &S;
  }
  ASSERT_NE(OuterSpan, nullptr);
  ASSERT_NE(InnerSpan, nullptr);
  EXPECT_EQ(OuterSpan->Parent, Ambient);
  EXPECT_EQ(OuterSpan->Root, 11);
  EXPECT_EQ(OuterSpan->Thread, "worker");
  EXPECT_FALSE(OuterSpan->Open);
  EXPECT_EQ(InnerSpan->Parent, OuterSpan->Id);
  EXPECT_EQ(InnerSpan->Root, 11);
  // Serial execution: the inner task begins after the outer ends.
  EXPECT_GE(InnerSpan->Begin.nanos(), OuterSpan->End.nanos());
}
