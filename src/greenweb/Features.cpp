//===- greenweb/Features.cpp - Learned-governor feature pipeline ----------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "greenweb/Features.h"

#include "dom/Dom.h"
#include "greenweb/AnnotationRegistry.h"
#include "greenweb/Governors.h"
#include "hw/AcmpChip.h"
#include "support/FileIo.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace greenweb;

//===----------------------------------------------------------------------===//
// Feature schema
//===----------------------------------------------------------------------===//

const std::array<const char *, kNumFeatures> &greenweb::featureNames() {
  static const std::array<const char *, kNumFeatures> Names = {
      "event_rate_hz",     "prev_frame_mcycles", "ewma_frame_mcycles",
      "prev_frame_fixed_ms", "is_continuous",    "target_ms",
      "event_kind",        "cur_is_big",         "cur_freq_mhz",
  };
  return Names;
}

int greenweb::eventKindCode(const std::string &Type) {
  if (Type == events::Click)
    return 0;
  if (Type == events::Scroll)
    return 1;
  if (Type == events::TouchMove)
    return 2;
  if (Type == events::Load)
    return 3;
  if (Type == events::TouchStart || Type == events::TouchEnd)
    return 4;
  return 5;
}

//===----------------------------------------------------------------------===//
// FeatureExtractor
//===----------------------------------------------------------------------===//

void FeatureExtractor::noteInput(TimePoint Now) {
  InputTimes.push_back(Now);
  Duration Window = Duration::seconds(1) * kRateWindowSecs;
  while (!InputTimes.empty() && Now - InputTimes.front() > Window)
    InputTimes.pop_front();
}

void FeatureExtractor::noteFrame(const FrameRecord &Frame) {
  PrevMcycles = Frame.CyclesCharged / 1e6;
  PrevFixedMs = Frame.FixedCharged.millis();
  EwmaMcycles = SeenFrame
                    ? kEwmaAlpha * PrevMcycles + (1.0 - kEwmaAlpha) * EwmaMcycles
                    : PrevMcycles;
  SeenFrame = true;
}

void FeatureExtractor::reset() {
  InputTimes.clear();
  PrevMcycles = EwmaMcycles = PrevFixedMs = 0.0;
  SeenFrame = false;
}

std::array<double, kNumFeatures>
FeatureExtractor::features(TimePoint Now, bool Continuous, double TargetMs,
                           int EventKind, bool CurIsBig,
                           double CurFreqMHz) const {
  // Count only inputs still inside the trailing window; entries age out
  // lazily in noteInput, so stale fronts may linger here.
  Duration Window = Duration::seconds(1) * kRateWindowSecs;
  size_t Recent = 0;
  for (TimePoint T : InputTimes)
    if (Now - T <= Window)
      ++Recent;
  return {double(Recent) / kRateWindowSecs,
          PrevMcycles,
          EwmaMcycles,
          PrevFixedMs,
          Continuous ? 1.0 : 0.0,
          TargetMs,
          double(EventKind),
          CurIsBig ? 1.0 : 0.0,
          CurFreqMHz};
}

//===----------------------------------------------------------------------===//
// Label generation
//===----------------------------------------------------------------------===//

int greenweb::bestLadderLevel(const AcmpChip &Chip,
                              const std::vector<AcmpConfig> &Ladder,
                              double Cycles, Duration Fixed, Duration Target,
                              double SafetyMargin) {
  assert(!Ladder.empty() && "label sweep over an empty ladder");
  const PowerModel &Power = Chip.powerModel();
  double Budget = Target.secs() * SafetyMargin;
  int Best = int(Ladder.size()) - 1;
  double BestJoules = -1.0;
  for (size_t I = 0; I < Ladder.size(); ++I) {
    const AcmpConfig &C = Ladder[I];
    double Latency = Fixed.secs() + Cycles / Chip.effectiveHzFor(C);
    if (Latency > Budget)
      continue;
    double Joules =
        Power.clusterPower(C.Core, C.FreqMHz, /*BusyCores=*/1) * Latency;
    if (BestJoules < 0.0 || Joules < BestJoules) {
      BestJoules = Joules;
      Best = int(I);
    }
  }
  return Best;
}

//===----------------------------------------------------------------------===//
// Feature table (JSONL)
//===----------------------------------------------------------------------===//

namespace {

/// Ingest limits of feature tables and models: a ladder or a tree past
/// these was not written by gw-train.
constexpr uint64_t MaxLadderLevels = 1024;
constexpr uint64_t MaxTreeDepth = 64;

void writeFeatureNames(json::Writer &W) {
  W.key("features").beginArray();
  for (size_t I = 0; I < kNumFeatures; ++I)
    W.str(featureNames()[I]);
  W.endArray();
}

/// True when the "features" member \p R reads is this build's list.
bool sameFeatureNames(json::Reader &R) {
  std::vector<std::string> Names = R.strings("features");
  return std::equal(Names.begin(), Names.end(), featureNames().begin(),
                    featureNames().end());
}

} // namespace

std::string greenweb::featureHeaderLine(size_t LadderLevels) {
  std::string Out;
  json::Writer W(Out);
  W.beginObject().key("kind").str("feature_header").key("schema").integer(1);
  W.key("ladder_levels").uinteger(LadderLevels);
  W.key("safety_margin").g17(FeatureProbe::kLabelSafetyMargin);
  writeFeatureNames(W);
  W.endObject();
  return Out;
}

std::string greenweb::featureRowLine(const FeatureRow &Row,
                                     const std::string &App,
                                     const std::string &Governor,
                                     uint64_t Seed) {
  std::string Out;
  json::Writer W(Out);
  W.beginObject().key("kind").str("feature_row").key("app").str(App);
  W.key("governor").str(Governor).key("seed").uinteger(Seed);
  W.key("f").beginArray();
  for (double X : Row.F)
    W.g17(X);
  W.endArray().key("label").integer(Row.Label).endObject();
  return Out;
}

bool FeatureTable::parse(const std::string &Text, FeatureTable &Out,
                         std::string *Error) {
  FeatureTable T;
  bool SawHeader = false;
  size_t LineNo = 0;
  for (std::string_view Line : split(Text, '\n')) {
    ++LineNo;
    std::string_view Trimmed = trim(Line);
    if (Trimmed.empty())
      continue;
    json::Reader R(Trimmed, formatString("feature table line %zu", LineNo));
    std::string Kind = R.string("kind");
    if (Kind == "feature_header") {
      if (R.number("schema", 0) != 1)
        R.fail("unsupported feature-table schema");
      if (!sameFeatureNames(R))
        R.fail("feature-table header has a foreign feature list");
      T.LadderLevels = R.count("ladder_levels", 0, MaxLadderLevels);
      if (T.LadderLevels == 0)
        R.fail("feature-table header has no ladder_levels");
      SawHeader = true;
    } else if (Kind == "feature_row") {
      if (!SawHeader)
        R.fail("feature rows before the feature_header line");
      const json::Value *F = R.array("f");
      if (F && F->Arr.size() != kNumFeatures)
        R.fail(formatString("line %zu has a malformed feature vector",
                            LineNo));
      FeatureRow Row;
      for (size_t I = 0; R.ok() && I < kNumFeatures; ++I)
        Row.F[I] = R.number(F->Arr[I], "f");
      Row.Label =
          int(R.integer("label", -1, 0, int64_t(T.LadderLevels) - 1));
      if (Row.Label < 0)
        R.fail(formatString("line %zu labels outside the ladder", LineNo));
      T.Rows.push_back(Row);
    } else if (Kind != "meta") {
      R.fail(formatString("line %zu is not a feature table record", LineNo));
    }
    if (!R.finish(Error))
      return false;
  }
  if (!SawHeader)
    return failWith(Error, "not a feature table (no feature_header line)");
  Out = std::move(T);
  return true;
}

//===----------------------------------------------------------------------===//
// DecisionTreeModel
//===----------------------------------------------------------------------===//

DecisionTreeModel::Prediction
DecisionTreeModel::predict(const std::array<double, kNumFeatures> &F) const {
  assert(loaded() && "predict on an untrained model");
  size_t I = 0;
  while (Nodes[I].Feature >= 0)
    I = size_t(F[size_t(Nodes[I].Feature)] < Nodes[I].Threshold
                   ? Nodes[I].Left
                   : Nodes[I].Right);
  return {Nodes[I].Leaf, Nodes[I].Confidence};
}

std::string DecisionTreeModel::toJson() const {
  std::string Out;
  json::Writer W(Out);
  W.beginObject().key("kind").str("gw_model").key("schema").integer(1);
  W.key("ladder_levels").uinteger(LadderLevels);
  W.key("max_depth").uinteger(MaxDepth);
  W.key("min_samples_leaf").uinteger(MinSamplesLeaf);
  W.key("rows").uinteger(TrainedRows);
  writeFeatureNames(W);
  W.key("nodes").beginArray();
  for (const TreeNode &N : Nodes) {
    W.beginObject();
    if (N.Feature >= 0) {
      W.key("split").integer(N.Feature).key("threshold").g17(N.Threshold);
      W.key("left").integer(N.Left).key("right").integer(N.Right);
    } else {
      W.key("leaf").integer(N.Leaf).key("confidence").g17(N.Confidence);
      W.key("count").uinteger(N.Count);
    }
    W.endObject();
  }
  W.endArray().endObject();
  return Out;
}

bool DecisionTreeModel::loadFile(const std::string &Path,
                                 DecisionTreeModel &Out,
                                 std::string *Error) {
  std::string Text, ParseError;
  if (!readFile(Path, Text, Error))
    return false;
  return parse(Text, Out, &ParseError) ||
         failWith(Error, Path + ": " + ParseError);
}

bool DecisionTreeModel::parse(const std::string &Text,
                              DecisionTreeModel &Out, std::string *Error) {
  json::Reader R(Text, "model");
  if (R.string("kind") != "gw_model")
    R.fail("not a gw-train model (kind mismatch)");
  double Schema = R.number("schema", 0);
  if (Schema != 1)
    R.fail(formatString("unsupported model schema %g", Schema));
  if (!sameFeatureNames(R))
    R.fail("model feature schema mismatch");

  DecisionTreeModel M;
  M.LadderLevels = R.count("ladder_levels", 0, MaxLadderLevels);
  if (M.LadderLevels == 0)
    R.fail("model has no ladder_levels");
  M.MaxDepth = unsigned(R.count("max_depth", 0, MaxTreeDepth));
  M.MinSamplesLeaf = unsigned(R.count("min_samples_leaf", 0, UINT32_MAX));
  M.TrainedRows = R.count("rows", 0);

  const json::Value *Nodes = R.array("nodes");
  if (Nodes && Nodes->Arr.empty())
    R.fail("model has no nodes");
  int64_t Count = Nodes ? int64_t(Nodes->Arr.size()) : 0;
  for (int64_t I = 0; R.ok() && I < Count; ++I) {
    const json::Value &V = Nodes->Arr[size_t(I)];
    json::Reader N = R.child(V, formatString("model node %lld",
                                             static_cast<long long>(I)));
    TreeNode T;
    if (V.get("split")) {
      // Children must point strictly forward: serialization is
      // pre-order, and the constraint rules out traversal cycles.
      T.Feature = int(N.integer("split", -1, 0, int64_t(kNumFeatures) - 1));
      T.Threshold = N.number("threshold", 0.0);
      T.Left = int(N.integer("left", -1, I + 1, Count - 1));
      T.Right = int(N.integer("right", -1, I + 1, Count - 1));
      if (T.Left < 0 || T.Right < 0)
        N.fail(formatString("model node %lld has no children",
                            static_cast<long long>(I)));
    } else {
      T.Feature = -1;
      T.Leaf = int(N.integer("leaf", -1, 0, int64_t(M.LadderLevels) - 1));
      T.Confidence = N.number("confidence", 0.0, 0.0, 1.0);
      T.Count = N.count("count", 0);
      if (T.Leaf < 0)
        N.fail(formatString("model node %lld has no leaf",
                            static_cast<long long>(I)));
    }
    M.Nodes.push_back(T);
  }
  if (R.ok())
    Out = std::move(M);
  return R.finish(Error);
}

//===----------------------------------------------------------------------===//
// CART training
//===----------------------------------------------------------------------===//

namespace {

double giniOf(const std::vector<uint64_t> &Counts, uint64_t Total) {
  if (Total == 0)
    return 0.0;
  double Sum = 0.0;
  for (uint64_t C : Counts) {
    double P = double(C) / double(Total);
    Sum += P * P;
  }
  return 1.0 - Sum;
}

struct SplitChoice {
  bool Found = false;
  int Feature = -1;
  double Threshold = 0.0;
  double Impurity = 0.0;
};

/// Exhaustive deterministic split search over \p Rows[Index...]: every
/// feature, every boundary between distinct adjacent values. Ties break
/// toward the lower feature index, then the lower threshold.
SplitChoice findBestSplit(const std::vector<FeatureRow> &Rows,
                          const std::vector<size_t> &Index,
                          size_t LadderLevels, unsigned MinSamplesLeaf) {
  SplitChoice Best;
  const size_t N = Index.size();
  std::vector<size_t> Order(Index);
  std::vector<uint64_t> LeftCounts(LadderLevels), RightCounts(LadderLevels);
  for (size_t F = 0; F < kNumFeatures; ++F) {
    // Stable sort keyed on the feature value only: equal values keep
    // canonical row order, so the sweep is input-order invariant.
    std::stable_sort(Order.begin(), Order.end(),
                     [&Rows, F](size_t A, size_t B) {
                       return Rows[A].F[F] < Rows[B].F[F];
                     });
    std::fill(LeftCounts.begin(), LeftCounts.end(), 0);
    std::fill(RightCounts.begin(), RightCounts.end(), 0);
    for (size_t I : Order)
      ++RightCounts[size_t(Rows[I].Label)];
    for (size_t I = 0; I + 1 < N; ++I) {
      size_t Row = Order[I];
      ++LeftCounts[size_t(Rows[Row].Label)];
      --RightCounts[size_t(Rows[Row].Label)];
      double Lo = Rows[Row].F[F];
      double Hi = Rows[Order[I + 1]].F[F];
      if (!(Lo < Hi))
        continue; // No boundary between equal values.
      uint64_t NL = I + 1, NR = N - NL;
      if (NL < MinSamplesLeaf || NR < MinSamplesLeaf)
        continue;
      double Impurity = (double(NL) * giniOf(LeftCounts, NL) +
                         double(NR) * giniOf(RightCounts, NR)) /
                        double(N);
      double Threshold = Lo + (Hi - Lo) / 2.0;
      if (!Best.Found || Impurity < Best.Impurity ||
          (Impurity == Best.Impurity &&
           (int(F) < Best.Feature ||
            (int(F) == Best.Feature && Threshold < Best.Threshold)))) {
        Best.Found = true;
        Best.Feature = int(F);
        Best.Threshold = Threshold;
        Best.Impurity = Impurity;
      }
    }
  }
  return Best;
}

struct TreeBuilder {
  const std::vector<FeatureRow> &Rows;
  size_t LadderLevels;
  TrainOptions Opts;
  std::vector<TreeNode> Nodes;

  int makeLeaf(const std::vector<size_t> &Index) {
    std::vector<uint64_t> Counts(LadderLevels, 0);
    for (size_t I : Index)
      ++Counts[size_t(Rows[I].Label)];
    // Majority label; ties break toward the lower ladder level.
    size_t Best = 0;
    for (size_t L = 1; L < LadderLevels; ++L)
      if (Counts[L] > Counts[Best])
        Best = L;
    TreeNode Leaf;
    Leaf.Feature = -1;
    Leaf.Leaf = int(Best);
    Leaf.Count = Index.size();
    Leaf.Confidence =
        Index.empty() ? 0.0
                      : double(Counts[Best]) / double(Index.size());
    Nodes.push_back(Leaf);
    return int(Nodes.size()) - 1;
  }

  int build(const std::vector<size_t> &Index, unsigned Depth) {
    bool Pure = true;
    for (size_t I = 1; I < Index.size(); ++I)
      if (Rows[Index[I]].Label != Rows[Index[0]].Label) {
        Pure = false;
        break;
      }
    if (Pure || Depth >= Opts.MaxDepth ||
        Index.size() < 2 * size_t(Opts.MinSamplesLeaf))
      return makeLeaf(Index);
    double Parent = [&] {
      std::vector<uint64_t> Counts(LadderLevels, 0);
      for (size_t I : Index)
        ++Counts[size_t(Rows[I].Label)];
      return giniOf(Counts, Index.size());
    }();
    SplitChoice Split =
        findBestSplit(Rows, Index, LadderLevels, Opts.MinSamplesLeaf);
    if (!Split.Found || Parent - Split.Impurity <= 1e-12)
      return makeLeaf(Index);

    std::vector<size_t> Left, Right;
    for (size_t I : Index)
      (Rows[I].F[size_t(Split.Feature)] < Split.Threshold ? Left : Right)
          .push_back(I);

    // Pre-order: parent, then the whole left subtree, then the right.
    TreeNode Node;
    Node.Feature = Split.Feature;
    Node.Threshold = Split.Threshold;
    Node.Count = Index.size();
    Nodes.push_back(Node);
    int Self = int(Nodes.size()) - 1;
    Nodes[size_t(Self)].Left = build(Left, Depth + 1);
    Nodes[size_t(Self)].Right = build(Right, Depth + 1);
    return Self;
  }
};

} // namespace

DecisionTreeModel greenweb::trainDecisionTree(std::vector<FeatureRow> Rows,
                                              size_t LadderLevels,
                                              const TrainOptions &Opts) {
  assert(LadderLevels > 0 && "training against an empty ladder");
  for (const FeatureRow &R : Rows) {
    (void)R;
    assert(R.Label >= 0 && size_t(R.Label) < LadderLevels &&
           "row labels outside the ladder");
  }
  // Canonical order first: training is then invariant to the input's
  // row order (shuffled fleets, resumed exports, merged shards).
  std::sort(Rows.begin(), Rows.end(),
            [](const FeatureRow &A, const FeatureRow &B) {
              for (size_t I = 0; I < kNumFeatures; ++I)
                if (A.F[I] != B.F[I])
                  return A.F[I] < B.F[I];
              return A.Label < B.Label;
            });

  DecisionTreeModel M;
  M.LadderLevels = LadderLevels;
  M.MaxDepth = Opts.MaxDepth;
  M.MinSamplesLeaf = std::max(1u, Opts.MinSamplesLeaf);
  M.TrainedRows = Rows.size();
  if (Rows.empty())
    return M; // Untrained: no nodes; callers check loaded().

  TreeBuilder Builder{Rows, LadderLevels,
                      TrainOptions{Opts.MaxDepth,
                                   std::max(1u, Opts.MinSamplesLeaf)},
                      {}};
  std::vector<size_t> All(Rows.size());
  for (size_t I = 0; I < Rows.size(); ++I)
    All[I] = I;
  Builder.build(All, 0);
  M.Nodes = std::move(Builder.Nodes);
  return M;
}

//===----------------------------------------------------------------------===//
// FeatureProbe
//===----------------------------------------------------------------------===//

FeatureProbe::FeatureProbe(const AnnotationRegistry &Registry,
                           AcmpChip &Chip, UsageScenario Scenario,
                           std::vector<FeatureRow> &Out)
    : Registry(Registry), Chip(Chip), Scenario(Scenario), Out(Out),
      Ladder(buildConfigLadder(Chip)) {}

void FeatureProbe::onInputDispatched(uint64_t RootId,
                                     const std::string &Type,
                                     Element *Target) {
  Extractor.noteInput(Chip.simulator().now());
  std::optional<QosSpec> Spec =
      Target ? Registry.lookup(*Target, Type) : std::nullopt;
  if (!Spec)
    return;
  Active A;
  A.Continuous = Spec->Type == QosType::Continuous;
  A.Target = activeTarget(*Spec, Scenario);
  A.Kind = eventKindCode(Type);
  ActiveRoots[RootId] = A;
}

void FeatureProbe::onFrameReady(const FrameRecord &Frame) {
  // One row per annotated root contributing to this frame: the feature
  // vector as it stood *before* the frame, labeled with the cheapest
  // ladder level that would have met the root's target given the
  // frame's ground-truth cost.
  std::map<uint64_t, bool> Roots;
  for (const MsgLatency &L : Frame.Latencies)
    Roots[L.Msg.RootId] = true;

  TimePoint Now = Chip.simulator().now();
  AcmpConfig Cur = Chip.config();
  std::vector<uint64_t> SinglesDone;
  for (const auto &[Root, Unused] : Roots) {
    (void)Unused;
    auto It = ActiveRoots.find(Root);
    if (It == ActiveRoots.end())
      continue;
    // Cold-start frames carry all-zero cost features but wildly varying
    // labels (the first frame can be a trivial click or a full page
    // load); exporting them teaches the tree to predict from nothing.
    // The serving governor declines these too, so skipping them also
    // removes train/serve skew.
    if (!Extractor.hasHistory()) {
      if (!It->second.Continuous)
        SinglesDone.push_back(Root);
      continue;
    }
    const Active &A = It->second;
    FeatureRow Row;
    Row.F = Extractor.features(Now, A.Continuous, A.Target.millis(),
                               A.Kind, Cur.Core == CoreKind::Big,
                               double(Cur.FreqMHz));
    Row.Label =
        bestLadderLevel(Chip, Ladder, Frame.CyclesCharged,
                        Frame.FixedCharged, A.Target, kLabelSafetyMargin);
    Out.push_back(Row);
    if (!A.Continuous)
      SinglesDone.push_back(Root);
  }
  for (uint64_t Root : SinglesDone)
    ActiveRoots.erase(Root);
  Extractor.noteFrame(Frame);
}

void FeatureProbe::onEventQuiescent(uint64_t RootId) {
  ActiveRoots.erase(RootId);
}
