//===- css/StyleResolver.h - Selector matching and cascade -------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Style resolution: matches stylesheet rules against DOM elements and
/// applies the cascade (specificity, then source order, inline style
/// last). Also provides the two typed queries the rest of the system
/// needs: active `transition:` specs and GreenWeb QoS annotations per
/// element.
///
/// Matching is indexed, following the shape production engines use:
///
///  - Rules are bucketed by their subject (rightmost) compound's most
///    selective key — id, then class, then tag, then universal — so a
///    lookup only considers selectors whose subject could possibly
///    match the element.
///  - Each indexed selector carries ancestor hints: hashes of the
///    identifiers its non-subject compounds require. A per-lookup Bloom
///    filter over the element's ancestor chain rejects selectors whose
///    required ancestors cannot be present, before the exact
///    right-to-left match runs.
///  - Matched-rule lists are cached per element (keyed by node id) and
///    stamped with the Document's style version, which every
///    id/class/inline-style mutation and subtree attachment bumps.
///
/// The index is an exact-output optimization: candidate buckets are a
/// superset of the matching selectors, every candidate is confirmed
/// with ComplexSelector::matches, and results are ordered by
/// (specificity, source order) exactly as a naive O(rules x selectors)
/// scan orders them. That scan survives only as a test oracle
/// (tests/common/ReferenceStyleMatch.h), which the randomized parity
/// tests compare against on every element.
///
/// For cross-run warm starts the index can be built once per stylesheet
/// (buildIndex) and shared read-only between resolver instances
/// (shareIndex), and a finished resolver's per-element cache can be
/// snapshot and adopted by later resolvers over the same sheet and an
/// id-identical document (snapshotCache/warmCache) — skipping both the
/// index build and the cold matching pass without changing any output.
///
/// A resolver instance is bound to one document's lifetime and is not
/// thread-safe; concurrent simulations each build their own browser
/// stack (see workloads/ParallelRunner.h). A shared RuleIndex, in
/// contrast, is immutable after construction and safe to read from any
/// number of threads.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_CSS_STYLERESOLVER_H
#define GREENWEB_CSS_STYLERESOLVER_H

#include "css/CssAst.h"
#include "css/CssValues.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace greenweb {
class Document;
class Element;
} // namespace greenweb

namespace greenweb::css {

/// A matched (rule, selector) pair with cascade ordering data.
struct MatchedRule {
  const StyleRule *Rule = nullptr;
  Specificity Spec;
  /// Source-order index of the rule in the stylesheet (tie breaker).
  size_t Order = 0;
};

/// One element's GreenWeb annotation discovered via the cascade.
struct QosAnnotation {
  /// Annotated element.
  const Element *Target = nullptr;
  /// DOM event name ("click", "touchmove", ...).
  std::string EventName;
  /// Parsed QoS value.
  QosValue Value;
};

/// Resolves styles for one document against one stylesheet.
class StyleResolver {
public:
  StyleResolver(const Stylesheet &Sheet) : Sheet(Sheet) {}

  /// One selector as stored in an index bucket.
  struct IndexedSelector {
    uint32_t RuleIdx = 0;
    uint32_t SelIdx = 0;
    /// Hashes of identifiers (id/class/tag) that non-subject compounds
    /// require somewhere on the ancestor chain. If any is missing from
    /// the element's ancestor filter the selector cannot match.
    std::vector<uint64_t> AncestorHints;
  };

  /// Heterogeneous string_view lookup for bucket maps.
  struct SvHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>{}(S);
    }
  };
  struct SvEq {
    using is_transparent = void;
    bool operator()(std::string_view A, std::string_view B) const {
      return A == B;
    }
  };
  using BucketMap =
      std::unordered_map<std::string, std::vector<IndexedSelector>, SvHash,
                         SvEq>;

  /// The subject-key rule index. Immutable once built, and independent
  /// of any document, so one instance can be built per stylesheet and
  /// shared read-only across every resolver (and thread) bound to that
  /// stylesheet — the warm path's zero-rebuild guarantee.
  struct RuleIndex {
    BucketMap IdBuckets;
    BucketMap ClassBuckets;
    /// Keyed by ASCII-lowercased tag (matching is case-insensitive).
    BucketMap TagBuckets;
    std::vector<IndexedSelector> UniversalBucket;
    /// Subject keys, as bucketed above, of every selector in a rule that
    /// declares a QoS property; sorted, tags lowercased. An element can
    /// match such a rule only if its id, one of its classes or its tag
    /// is among them (or QosUniversal is set), so no other element can
    /// get a QoS annotation or diagnostic.
    std::vector<std::string> QosIds;
    std::vector<std::string> QosClasses;
    std::vector<std::string> QosTags;
    bool QosUniversal = false;
    /// Rules indexed; a resolver whose sheet has grown past this falls
    /// back to (re)building its own index.
    size_t RuleCount = 0;
  };

  /// Builds a shareable index over \p Sheet.
  static std::shared_ptr<const RuleIndex> buildIndex(const Stylesheet &Sheet);

  /// Adopts a prebuilt index for \p Sheet instead of lazily building
  /// one. The index must have been built over this resolver's
  /// stylesheet; if the sheet later grows, the resolver quietly falls
  /// back to its own rebuild.
  void shareIndex(std::shared_ptr<const RuleIndex> Index) {
    Shared = std::move(Index);
  }

  struct CacheEntry {
    uint64_t Version = 0;
    std::vector<MatchedRule> Matches;
  };
  /// Per-element matched-rules store, keyed by Element::nodeId and
  /// stamped with Document::styleVersion.
  using MatchCache = std::unordered_map<uint64_t, CacheEntry>;

  /// Copies the current per-element cache for reuse by future resolver
  /// instances (see warmCache).
  std::shared_ptr<const MatchCache> snapshotCache() const {
    return std::make_shared<MatchCache>(Cache);
  }

  /// Installs a read-only warm base: on a cache miss whose node id and
  /// style version match a base entry, the entry is adopted instead of
  /// re-matching. Only sound when \p Base was snapshot from a resolver
  /// over the SAME Stylesheet object (MatchedRule points into its
  /// rules) and a document whose node ids/style version this document
  /// reproduces — which Document::clone guarantees.
  void warmCache(std::shared_ptr<const MatchCache> Base) {
    WarmBase = std::move(Base);
  }

  /// All rules matching \p E, sorted in ascending cascade priority
  /// (later entries win).
  std::vector<MatchedRule> matchRules(const Element &E) const;

  /// Computed value of \p Property for \p E after the cascade, with the
  /// element's inline style taking highest priority. Empty when unset.
  std::string computedValue(const Element &E,
                            std::string_view Property) const;

  /// Full computed style map for \p E (stylesheet cascade plus inline).
  std::map<std::string, std::string> computedStyle(const Element &E) const;

  /// Transition specs in effect for \p E (from the computed
  /// `transition` value).
  std::vector<TransitionSpec> transitionsFor(const Element &E) const;

  /// GreenWeb QoS annotations in effect for \p E. Only declarations in
  /// rules whose subject compound carries the `:QoS` qualifier count;
  /// for each event name the highest-cascade-priority declaration wins.
  /// Malformed declarations are reported through \p Diags when non-null.
  std::vector<QosAnnotation>
  qosAnnotationsFor(const Element &E,
                    std::vector<std::string> *Diags = nullptr) const;

  /// Scans the whole document and returns every element's annotations,
  /// and their diagnostics, in pre-order. Only elements hitting one of
  /// the index's QoS subject keys are matched; for any other element
  /// qosAnnotationsFor returns nothing and reports nothing.
  std::vector<QosAnnotation>
  collectQosAnnotations(Document &Doc,
                        std::vector<std::string> *Diags = nullptr) const;

  const Stylesheet &stylesheet() const { return Sheet; }

  /// Index/cache observability (tests, docs/PERFORMANCE.md numbers).
  struct IndexStats {
    uint64_t CacheHits = 0;
    uint64_t CacheMisses = 0;
    /// Misses satisfied by adopting a warm-base entry (see warmCache).
    uint64_t WarmHits = 0;
    /// Times this resolver (re)built its own index; stays zero while a
    /// shared index covers the sheet.
    uint64_t IndexBuilds = 0;
    /// Candidate selectors pulled from buckets across all lookups.
    uint64_t Candidates = 0;
    /// Candidates dismissed by the ancestor-hint filter alone.
    uint64_t FastRejects = 0;
    /// Elements collectQosAnnotations walked, and those of them it
    /// matched because they hit a QoS subject key.
    uint64_t QosScanWalked = 0;
    uint64_t QosScanMatched = 0;
  };
  const IndexStats &indexStats() const { return Stats; }

private:
  /// The index lookups go through: the shared one when installed and
  /// still covering the sheet, else the lazily (re)built own index.
  const RuleIndex &activeIndex() const;

  const Stylesheet &Sheet;

  /// Prebuilt shared index (warm path); nullptr for self-built.
  std::shared_ptr<const RuleIndex> Shared;
  /// Lazily built own index (mutable: matchRules is logically const).
  mutable bool IndexBuilt = false;
  mutable RuleIndex Own;

  /// Per-element matched-rules cache, validated against
  /// Document::styleVersion.
  mutable MatchCache Cache;
  /// Read-only warm base adopted entry-by-entry on cache misses.
  std::shared_ptr<const MatchCache> WarmBase;
  mutable IndexStats Stats;
};

} // namespace greenweb::css

#endif // GREENWEB_CSS_STYLERESOLVER_H
