//===- telemetry/CriticalPath.cpp - Why did this frame miss? ---------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/CriticalPath.h"

#include "support/StringUtils.h"

#include <algorithm>

using namespace greenweb;

SpanIndex::SpanIndex(const TelemetryLog &Log) {
  for (const TelemetryRecord &R : Log.records()) {
    const CompletedSpanRecord *C = R.get<CompletedSpanRecord>();
    if (!C)
      continue;
    SpanRecord S;
    S.Id = C->Id;
    S.Parent = C->Parent;
    S.Root = C->Root;
    S.Frame = C->Frame;
    S.Name = C->Name;
    S.Thread = C->Thread;
    S.BeginUs = C->BeginUs;
    S.EndUs = S.BeginUs + C->DurMs * 1e3;
    S.Truncated = C->Open != 0;
    ById[S.Id] = Spans.size();
    Spans.push_back(std::move(S));
  }
}

const SpanRecord *SpanIndex::byId(int64_t Id) const {
  auto It = ById.find(Id);
  return It == ById.end() ? nullptr : &Spans[It->second];
}

namespace {

/// Walks parent links from \p Tail upwards until (and excluding)
/// \p StopId, returning the chain in causal (top-down) order.
std::vector<const SpanRecord *> walkUp(const SpanIndex &Index,
                                       const SpanRecord *Tail,
                                       int64_t StopId) {
  std::vector<const SpanRecord *> Chain;
  for (const SpanRecord *S = Tail; S && S->Id != StopId;
       S = Index.byId(S->Parent)) {
    // A cycle cannot occur (parents always have lower ids), but a
    // truncated log can repeat ids; bail out rather than loop.
    if (Chain.size() > Index.all().size())
      break;
    Chain.push_back(S);
  }
  std::reverse(Chain.begin(), Chain.end());
  return Chain;
}

} // namespace

CriticalPathResult greenweb::extractCriticalPath(const SpanIndex &Index,
                                                 int64_t FrameId,
                                                 int64_t RootId,
                                                 double TargetMs,
                                                 bool IncludeInputChain) {
  CriticalPathResult Result;

  // The frame's production window, opened at its VSync.
  const SpanRecord *FrameContainer = nullptr;
  for (const SpanRecord &S : Index.all())
    if (S.Frame == FrameId && S.Parent == 0 && S.Thread == "frames")
      FrameContainer = &S;
  if (!FrameContainer)
    return Result;

  // Last work to finish inside the frame; its parent links are the
  // in-frame stage chain (animate -> style -> layout -> paint ->
  // composite), whatever subset actually ran.
  const SpanRecord *FrameTail = nullptr;
  for (const SpanRecord &S : Index.all()) {
    // Timer tasks posted during a stage inherit the frame id but can
    // outlive the frame; the blocking chain ends at the present.
    if (S.Frame != FrameId || S.Id == FrameContainer->Id ||
        S.EndUs > FrameContainer->EndUs)
      continue;
    if (!FrameTail || S.EndUs > FrameTail->EndUs ||
        (S.EndUs == FrameTail->EndUs && S.Id > FrameTail->Id))
      FrameTail = &S;
  }

  std::vector<const SpanRecord *> Chain;
  if (IncludeInputChain && RootId != 0) {
    // The input event's lifetime span...
    const SpanRecord *RootContainer = nullptr;
    for (const SpanRecord &S : Index.all())
      if (S.Root == RootId && S.Parent == 0 && S.Thread == "inputs") {
        RootContainer = &S;
        break;
      }
    if (RootContainer) {
      // ...and the input-side work that fed this frame: the last
      // off-frame span of the root finishing before the frame closed.
      const SpanRecord *InputTail = nullptr;
      for (const SpanRecord &S : Index.all()) {
        if (S.Root != RootId || S.Frame != 0 ||
            S.Id == RootContainer->Id || S.EndUs > FrameContainer->EndUs)
          continue;
        if (!InputTail || S.EndUs > InputTail->EndUs ||
            (S.EndUs == InputTail->EndUs && S.Id > InputTail->Id))
          InputTail = &S;
      }
      Chain.push_back(RootContainer);
      if (InputTail) {
        std::vector<const SpanRecord *> InputChain =
            walkUp(Index, InputTail, RootContainer->Id);
        Chain.insert(Chain.end(), InputChain.begin(), InputChain.end());
      }
    }
  }

  Chain.push_back(FrameContainer);
  if (FrameTail) {
    std::vector<const SpanRecord *> FrameChain =
        walkUp(Index, FrameTail, FrameContainer->Id);
    Chain.insert(Chain.end(), FrameChain.begin(), FrameChain.end());
  }

  Result.TotalMs = (Chain.back()->EndUs - Chain.front()->BeginUs) / 1e3;
  Result.SlackMs = TargetMs >= 0.0 ? TargetMs - Result.TotalMs : 0.0;

  for (size_t I = 0; I < Chain.size(); ++I) {
    PathStep Step;
    Step.S = *Chain[I];
    if (I > 0) {
      // Containers overlap their children, so the queueing gap is
      // measured from a container's begin, not its end.
      const SpanRecord *Prev = Chain[I - 1];
      double PrevRef = Prev->isContainer() ? Prev->BeginUs : Prev->EndUs;
      Step.WaitMs = std::max(0.0, (Step.S.BeginUs - PrevRef) / 1e3);
    }
    Step.Candidate = !Step.S.isContainer();
    Step.SlackMs = Step.Candidate ? Result.SlackMs : 0.0;
    Result.Steps.push_back(std::move(Step));
  }

  for (size_t I = 0; I < Result.Steps.size(); ++I) {
    const PathStep &Step = Result.Steps[I];
    if (!Step.Candidate)
      continue;
    if (Result.Bottleneck < 0)
      Result.Bottleneck = int(I);
    else {
      const PathStep &Best = Result.Steps[size_t(Result.Bottleneck)];
      double D = Step.S.durationMs(), BD = Best.S.durationMs();
      if (D > BD || (D == BD && (Step.S.BeginUs < Best.S.BeginUs ||
                                 (Step.S.BeginUs == Best.S.BeginUs &&
                                  Step.S.Id < Best.S.Id))))
        Result.Bottleneck = int(I);
    }
  }
  return Result;
}

std::string WhyReport::format() const {
  std::string Out = formatString(
      "frame %lld root %lld [%s] %s '%s': %.1f ms against %.1f ms target "
      "(+%.1f ms over)\n",
      static_cast<long long>(FrameId), static_cast<long long>(RootId),
      QosKind.empty() ? "?" : QosKind.c_str(), Governor.c_str(),
      ModelKey.c_str(), LatencyMs, TargetMs, LatencyMs - TargetMs);
  if (HasDecision) {
    Out += formatString("  decision %.1f ms earlier: %s -> %s",
                        DecisionAgeMs, DecisionReason.c_str(),
                        DecisionConfig.c_str());
    if (PredictedMs >= 0.0)
      Out += formatString(", predicted %.1f ms (actual %.1f ms)",
                          PredictedMs, LatencyMs);
    Out += "\n";
  } else {
    Out += "  no governor decision precedes this violation\n";
  }
  if (Path.Steps.empty()) {
    Out += "  critical path: (no span data in log)\n";
    return Out;
  }
  Out += "  critical path:\n";
  for (size_t I = 0; I < Path.Steps.size(); ++I) {
    const PathStep &Step = Path.Steps[I];
    Out += formatString("    %-24s %-14s wait %8.3f ms  dur %8.3f ms%s%s\n",
                        Step.S.Name.c_str(), Step.S.Thread.c_str(),
                        Step.WaitMs, Step.S.durationMs(),
                        Step.Candidate ? "" : "  (container)",
                        int(I) == Path.Bottleneck ? "  <- bottleneck" : "");
  }
  if (const PathStep *B = Path.bottleneck())
    Out += formatString(
        "  bottleneck: %s on %s (%.3f ms); chain %.1f ms, slack %.1f ms\n",
        B->S.Name.c_str(), B->S.Thread.c_str(), B->S.durationMs(),
        Path.TotalMs, Path.SlackMs);
  return Out;
}

std::vector<WhyReport> greenweb::buildWhyReports(const TelemetryLog &Log) {
  SpanIndex Index(Log);
  std::vector<const TelemetryRecord *> Decisions =
      Log.byKind(TelemetryEventKind::GovernorDecision);
  std::vector<WhyReport> Out;
  for (const TelemetryRecord &R : Log.records()) {
    const QosViolationRecord *V = R.get<QosViolationRecord>();
    if (!V)
      continue;
    WhyReport W;
    W.TsUs = R.Ts.nanos() / 1e3;
    W.FrameId = V->FrameId;
    W.RootId = V->RootId;
    W.Governor = V->Governor;
    W.ModelKey = V->ModelKey;
    W.QosKind = V->QosKind;
    W.LatencyMs = V->LatencyMs;
    W.TargetMs = V->TargetMs;

    // The decision to blame: the nearest preceding one for this root,
    // else the nearest preceding one overall.
    const TelemetryRecord *SameRoot = nullptr;
    const TelemetryRecord *Any = nullptr;
    for (const TelemetryRecord *D : Decisions) {
      if (D->Ts > R.Ts)
        break;
      Any = D;
      if (W.RootId != 0 &&
          D->as<GovernorDecisionRecord>().RootId == W.RootId)
        SameRoot = D;
    }
    if (const TelemetryRecord *D = SameRoot ? SameRoot : Any) {
      const GovernorDecisionRecord &G = D->as<GovernorDecisionRecord>();
      W.HasDecision = true;
      W.DecisionReason = G.Reason;
      W.DecisionConfig = G.Config;
      W.PredictedMs = G.PredictedMs;
      W.DecisionAgeMs = (R.Ts - D->Ts).millis();
    }

    // Continuous targets constrain frame production only; stale input
    // spans (a fling's first touch, seconds old) would mislead.
    bool IncludeInput = W.QosKind != "continuous" && W.RootId != 0;
    W.Path = extractCriticalPath(Index, W.FrameId, W.RootId, W.TargetMs,
                                 IncludeInput);
    Out.push_back(std::move(W));
  }
  return Out;
}
