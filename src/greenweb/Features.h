//===- greenweb/Features.h - Learned-governor feature pipeline --*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The learned-governor feature pipeline (Yuan et al., "Using Machine
/// Learning to Optimize Web Interactions on Heterogeneous Mobile
/// Systems"): a fixed feature schema shared between training and
/// serving, the online FeatureExtractor that maintains it from the same
/// observables the LTM runtime sees, an offline label generator that
/// sweeps the config ladder against a frame's ground-truth cost, a
/// dependency-free CART trainer whose output is byte-deterministic and
/// invariant to input row order, and the JSON model the
/// PredictiveGovernor loads at attach time.
///
/// Train/serve skew is the classic failure mode of this design, so both
/// sides are deliberately the same code: the FeatureProbe that exports
/// training rows during fleet runs and the PredictiveGovernor that
/// queries the model at decision time build their vectors through one
/// FeatureExtractor with one feature order (kFeatureNames).
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_GREENWEB_FEATURES_H
#define GREENWEB_GREENWEB_FEATURES_H

#include "browser/FrameTracker.h"
#include "greenweb/Qos.h"
#include "support/Time.h"

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace greenweb {

class AcmpChip;
class AnnotationRegistry;
struct AcmpConfig;

//===----------------------------------------------------------------------===//
// Feature schema
//===----------------------------------------------------------------------===//

/// Number of features per row. The order below is the one canonical
/// feature order; models record it and refuse to load against a
/// different schema.
inline constexpr size_t kNumFeatures = 9;

/// Canonical feature names, in vector order:
///   0 event_rate_hz      inputs in the trailing window, per second
///   1 prev_frame_mcycles previous frame's charged cycles, millions
///   2 ewma_frame_mcycles EWMA of charged frame cycles, millions
///   3 prev_frame_fixed_ms previous frame's frequency-independent time
///   4 is_continuous      1 for smoothness (continuous) QoS, else 0
///   5 target_ms          the event's active QoS target
///   6 event_kind         small enum of the root event type
///   7 cur_is_big         1 when the chip sits on the big cluster
///   8 cur_freq_mhz       current chip frequency
const std::array<const char *, kNumFeatures> &featureNames();

/// Small enum used for feature 6; unknown types collapse to one code so
/// the model never sees an unbounded categorical.
int eventKindCode(const std::string &Type);

/// One training example: the feature vector known before a frame ran,
/// labeled with the minimum-energy ladder level that would have met the
/// frame's QoS target given its ground-truth cost.
struct FeatureRow {
  std::array<double, kNumFeatures> F{};
  int Label = 0;
};

//===----------------------------------------------------------------------===//
// Online feature extraction
//===----------------------------------------------------------------------===//

/// Maintains the running feature state from runtime-visible observables
/// (input arrivals and completed frames). Shared by the training-data
/// probe and the serving-time governor.
class FeatureExtractor {
public:
  /// Trailing window for the event-rate feature.
  static constexpr double kRateWindowSecs = 1.0;
  /// EWMA smoothing factor for frame cycles.
  static constexpr double kEwmaAlpha = 0.3;

  void noteInput(TimePoint Now);
  void noteFrame(const FrameRecord &Frame);
  void reset();

  /// True once at least one frame has been observed. Before that the
  /// cost features are degenerate zeros: the exporter skips such rows
  /// and the serving governor declines to predict from them.
  bool hasHistory() const { return SeenFrame; }

  /// Builds the canonical feature vector for deciding the next frame of
  /// an event with the given QoS shape, at the given chip state.
  std::array<double, kNumFeatures> features(TimePoint Now, bool Continuous,
                                            double TargetMs, int EventKind,
                                            bool CurIsBig,
                                            double CurFreqMHz) const;

private:
  std::deque<TimePoint> InputTimes;
  double PrevMcycles = 0.0;
  double EwmaMcycles = 0.0;
  double PrevFixedMs = 0.0;
  bool SeenFrame = false;
};

//===----------------------------------------------------------------------===//
// Offline label generation
//===----------------------------------------------------------------------===//

/// Sweeps \p Ladder and returns the index of the minimum-energy level
/// whose latency — \p Fixed plus \p Cycles at the level's effective
/// rate — lands within \p Target scaled by \p SafetyMargin. Falls back
/// to the top level when nothing qualifies. This is the exporter's
/// privilege: it sees the frame's ground-truth cost after the fact,
/// which the online runtime never does.
int bestLadderLevel(const AcmpChip &Chip,
                    const std::vector<AcmpConfig> &Ladder, double Cycles,
                    Duration Fixed, Duration Target,
                    double SafetyMargin = 0.95);

//===----------------------------------------------------------------------===//
// Feature table (JSONL)
//===----------------------------------------------------------------------===//

/// Parsed feature table: the header's ladder size plus all rows. The
/// on-disk form is JSONL — an optional {"kind":"meta",...} line, one
/// required {"kind":"feature_header",...} line naming the schema, and
/// one {"kind":"feature_row",...} line per example.
struct FeatureTable {
  size_t LadderLevels = 0;
  std::vector<FeatureRow> Rows;

  static bool parse(const std::string &Text, FeatureTable &Out,
                    std::string *Error = nullptr);
};

/// The {"kind":"feature_header",...} line (fixed key order).
std::string featureHeaderLine(size_t LadderLevels);
/// One {"kind":"feature_row",...} line. \p App / \p Governor / \p Seed
/// tag the row's provenance for slicing; training ignores them.
std::string featureRowLine(const FeatureRow &Row, const std::string &App,
                           const std::string &Governor, uint64_t Seed);

//===----------------------------------------------------------------------===//
// Decision-tree model
//===----------------------------------------------------------------------===//

/// One tree node. Internal nodes split on F[Feature] < Threshold (left)
/// vs >= (right); leaves carry the majority label with its vote share.
struct TreeNode {
  int Feature = -1; ///< -1 marks a leaf.
  double Threshold = 0.0;
  int Left = -1;
  int Right = -1;
  int Leaf = 0;            ///< Majority ladder level (leaves).
  double Confidence = 0.0; ///< Majority vote share in [0, 1] (leaves).
  uint64_t Count = 0;      ///< Training rows that reached this leaf.
};

/// A trained classifier mapping feature vectors to ladder levels.
struct DecisionTreeModel {
  size_t LadderLevels = 0;
  unsigned MaxDepth = 0;
  unsigned MinSamplesLeaf = 0;
  uint64_t TrainedRows = 0;
  std::vector<TreeNode> Nodes; ///< Node 0 is the root; empty = untrained.

  struct Prediction {
    int Level = 0;
    double Confidence = 0.0;
  };
  /// Walks the tree; asserts on an untrained model.
  Prediction predict(const std::array<double, kNumFeatures> &F) const;

  /// Canonical JSON document (fixed key order, %.17g floats): identical
  /// inputs serialize byte-for-byte.
  std::string toJson() const;

  /// Parses and validates a model document. Wrong kind, wrong schema
  /// version, a foreign feature list, or malformed nodes all fail with
  /// a diagnostic — the governor treats any failure as "no model".
  static bool parse(const std::string &Text, DecisionTreeModel &Out,
                    std::string *Error = nullptr);

  /// The one model loader: reads \p Path and parses it. Diagnostics
  /// name the path ("cannot read <path>: ..." or "<path>: ...").
  static bool loadFile(const std::string &Path, DecisionTreeModel &Out,
                       std::string *Error = nullptr);

  bool loaded() const { return !Nodes.empty(); }
};

/// CART training options.
struct TrainOptions {
  unsigned MaxDepth = 8;
  unsigned MinSamplesLeaf = 4;
};

/// Trains a CART classifier over \p Rows. Deterministic by
/// construction: rows are first sorted into a canonical order (so the
/// result is invariant to input shuffling), the exhaustive Gini split
/// search breaks ties toward the lowest feature index then the lowest
/// threshold, and leaf ties break toward the lower ladder level (the
/// more energy-conservative choice under our ladder ordering is the
/// *higher* level, so ties preferring lower levels must be earned by
/// actual majority).
DecisionTreeModel trainDecisionTree(std::vector<FeatureRow> Rows,
                                    size_t LadderLevels,
                                    const TrainOptions &Opts = {});

//===----------------------------------------------------------------------===//
// Training-data probe
//===----------------------------------------------------------------------===//

/// FrameObserver that exports one labeled FeatureRow per frame
/// attributed to an annotated event, mirroring the runtime's event
/// bookkeeping (single events stop at their response frame, continuous
/// events run to quiescence). Attach alongside any governor: labels
/// come from ground-truth frame costs, not from what the chip ran.
class FeatureProbe : public FrameObserver {
public:
  FeatureProbe(const AnnotationRegistry &Registry, AcmpChip &Chip,
               UsageScenario Scenario, std::vector<FeatureRow> &Out);

  void onInputDispatched(uint64_t RootId, const std::string &Type,
                         Element *Target) override;
  void onFrameReady(const FrameRecord &Frame) override;
  void onEventQuiescent(uint64_t RootId) override;

  /// Label-generation safety margin. Deliberately tighter than the
  /// runtime's 0.95 budget fraction: the label is a counterfactual that
  /// assumes the next frame costs exactly what this one did, so the
  /// headroom absorbs frame-to-frame cycle variance the model cannot
  /// see. 0.80 keeps ablation QoS at parity with the LTM baseline.
  static constexpr double kLabelSafetyMargin = 0.80;

private:
  struct Active {
    bool Continuous = false;
    Duration Target;
    int Kind = 0;
  };

  const AnnotationRegistry &Registry;
  AcmpChip &Chip;
  UsageScenario Scenario;
  std::vector<FeatureRow> &Out;
  std::vector<AcmpConfig> Ladder;
  FeatureExtractor Extractor;
  std::map<uint64_t, Active> ActiveRoots;
};

} // namespace greenweb

#endif // GREENWEB_GREENWEB_FEATURES_H
