//===- telemetry/SpanTracer.cpp - Causal span recording --------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/SpanTracer.h"

#include "telemetry/Telemetry.h"

#include <optional>

using namespace greenweb;

SpanTracer::Span *SpanTracer::findMutable(int64_t Id) {
  // Ids are 1-based indices into All, so lookup is O(1).
  if (Id < 1 || size_t(Id) > All.size())
    return nullptr;
  return &All[size_t(Id) - 1];
}

const SpanTracer::Span *SpanTracer::find(int64_t Id) const {
  return const_cast<SpanTracer *>(this)->findMutable(Id);
}

int64_t SpanTracer::begin(std::string_view Name, std::string_view Thread,
                          int64_t Root, int64_t Frame, int64_t Parent) {
  if (!Enabled)
    return 0;
  if (Parent == UseCurrent)
    Parent = Current;
  if (const Span *P = find(Parent)) {
    if (Root == 0)
      Root = P->Root;
    if (Frame == 0)
      Frame = P->Frame;
  }
  Span S;
  S.Id = int64_t(All.size()) + 1;
  S.Parent = Parent;
  S.Root = Root;
  S.Frame = Frame;
  S.Name = Name;
  S.Thread = Thread;
  S.Begin = Hub->now();
  S.End = S.Begin;
  All.push_back(std::move(S));
  return All.back().Id;
}

void SpanTracer::end(int64_t Id) {
  Span *S = findMutable(Id);
  if (!S || !S->Open)
    return;
  S->End = Hub->now();
  S->Open = false;
  Hub->recordSpan(*S, /*Truncated=*/false);
}

void SpanTracer::setFrame(int64_t Id, int64_t FrameId) {
  if (Span *S = findMutable(Id))
    if (S->Open)
      S->Frame = FrameId;
}

size_t SpanTracer::openCount() const {
  size_t N = 0;
  for (const Span &S : All)
    if (S.Open)
      ++N;
  return N;
}

void SpanTracer::finishAll() {
  // The clock is read only when a span is open: a hub whose run has
  // ended may still hold a clock bound to that run's (gone) simulator.
  std::optional<TimePoint> Now;
  for (Span &S : All) {
    if (!S.Open)
      continue;
    if (!Now)
      Now = Hub->now();
    S.End = *Now;
    S.Open = false;
    Hub->recordSpan(S, /*Truncated=*/true);
  }
  Current = 0;
}

void SpanTracer::clear() {
  All.clear();
  Current = 0;
}
