//===- css/StyleResolver.cpp - Selector matching and cascade -------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "css/StyleResolver.h"

#include "dom/Dom.h"
#include "profiling/Profiler.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace greenweb;
using namespace greenweb::css;

//===----------------------------------------------------------------------===//
// Ancestor-hint hashing
//===----------------------------------------------------------------------===//

namespace {

/// FNV-1a over an identifier, namespaced by kind so "#a", ".a", and tag
/// "a" hash apart. Deliberately not std::hash: the values feed a filter
/// whose behavior should not vary across standard libraries.
uint64_t hashIdentifier(char Kind, std::string_view Name) {
  uint64_t H = 1469598103934665603ull ^ uint8_t(Kind);
  H *= 1099511628211ull;
  for (char C : Name) {
    H ^= uint8_t(C);
    H *= 1099511628211ull;
  }
  return H;
}

uint64_t hashTag(std::string_view Tag) {
  // Tag matching is ASCII case-insensitive; fold before hashing.
  uint64_t H = 1469598103934665603ull ^ uint8_t('t');
  H *= 1099511628211ull;
  for (char C : Tag) {
    if (C >= 'A' && C <= 'Z')
      C = char(C - 'A' + 'a');
    H ^= uint8_t(C);
    H *= 1099511628211ull;
  }
  return H;
}

/// 256-bit Bloom filter over the identifiers present on an element's
/// ancestor chain. One hash per identifier keeps inserts cheap; at the
/// chain sizes seen here (tens of identifiers) the false-positive rate
/// stays low, and false positives only cost the exact match that would
/// have run without the filter.
struct AncestorFilter {
  uint64_t Bits[4] = {0, 0, 0, 0};

  void insert(uint64_t Hash) {
    unsigned Bit = Hash & 255;
    Bits[Bit >> 6] |= uint64_t(1) << (Bit & 63);
  }

  bool mayContain(uint64_t Hash) const {
    unsigned Bit = Hash & 255;
    return Bits[Bit >> 6] & (uint64_t(1) << (Bit & 63));
  }

  /// All hints present => the selector's ancestor requirements could be
  /// satisfiable; any absent => the selector cannot match.
  bool mayMatch(const std::vector<uint64_t> &Hints) const {
    for (uint64_t Hint : Hints)
      if (!mayContain(Hint))
        return false;
    return true;
  }
};

AncestorFilter buildAncestorFilter(const Element &E) {
  AncestorFilter Filter;
  for (const Element *A = E.parent(); A; A = A->parent()) {
    if (!A->id().empty())
      Filter.insert(hashIdentifier('#', A->id()));
    for (const std::string &Class : A->classes())
      Filter.insert(hashIdentifier('.', Class));
    Filter.insert(hashTag(A->tagName()));
  }
  return Filter;
}

/// Identifier hashes a non-subject compound requires of the ancestor it
/// binds to. (Child combinators constrain a specific ancestor, but that
/// ancestor is still on the chain, so the hints stay sound.)
void appendCompoundHints(const SimpleSelector &Compound,
                         std::vector<uint64_t> &Hints) {
  if (!Compound.Id.empty())
    Hints.push_back(hashIdentifier('#', Compound.Id));
  for (const std::string &Class : Compound.Classes)
    Hints.push_back(hashIdentifier('.', Class));
  if (!Compound.Tag.empty() && Compound.Tag != "*")
    Hints.push_back(hashTag(Compound.Tag));
}

} // namespace

//===----------------------------------------------------------------------===//
// Index construction and lookup
//===----------------------------------------------------------------------===//

static void sortUnique(std::vector<std::string> &Keys) {
  std::sort(Keys.begin(), Keys.end());
  Keys.erase(std::unique(Keys.begin(), Keys.end()), Keys.end());
}

static void buildIndexInto(StyleResolver::RuleIndex &Index,
                           const Stylesheet &Sheet) {
  GW_PROF_SCOPE("css.build_index");
  Index = StyleResolver::RuleIndex();
  for (size_t RuleIdx = 0; RuleIdx < Sheet.Rules.size(); ++RuleIdx) {
    const StyleRule &Rule = Sheet.Rules[RuleIdx];
    bool DeclaresQos = std::any_of(
        Rule.Declarations.begin(), Rule.Declarations.end(),
        [](const Declaration &Decl) { return isQosProperty(Decl.Property); });
    for (size_t SelIdx = 0; SelIdx < Rule.Selectors.size(); ++SelIdx) {
      const ComplexSelector &Selector = Rule.Selectors[SelIdx];
      if (Selector.Compounds.empty())
        continue; // Matches nothing, like the naive scan.
      StyleResolver::IndexedSelector Indexed;
      Indexed.RuleIdx = uint32_t(RuleIdx);
      Indexed.SelIdx = uint32_t(SelIdx);
      for (size_t I = 0; I + 1 < Selector.Compounds.size(); ++I)
        appendCompoundHints(Selector.Compounds[I], Indexed.AncestorHints);
      // Bucket by the subject compound's most selective key. The bucket
      // key is a necessary condition only; the exact match below still
      // verifies the full compound.
      const SimpleSelector &Subject = Selector.Compounds.back();
      if (!Subject.Id.empty()) {
        Index.IdBuckets[Subject.Id].push_back(std::move(Indexed));
        if (DeclaresQos)
          Index.QosIds.push_back(Subject.Id);
      } else if (!Subject.Classes.empty()) {
        Index.ClassBuckets[Subject.Classes.front()].push_back(
            std::move(Indexed));
        if (DeclaresQos)
          Index.QosClasses.push_back(Subject.Classes.front());
      } else if (!Subject.Tag.empty() && Subject.Tag != "*") {
        Index.TagBuckets[toLower(Subject.Tag)].push_back(std::move(Indexed));
        if (DeclaresQos)
          Index.QosTags.push_back(toLower(Subject.Tag));
      } else {
        Index.UniversalBucket.push_back(std::move(Indexed));
        Index.QosUniversal |= DeclaresQos;
      }
    }
  }
  sortUnique(Index.QosIds);
  sortUnique(Index.QosClasses);
  sortUnique(Index.QosTags);
  Index.RuleCount = Sheet.Rules.size();
}

/// True when \p E hits one of \p Index's QoS subject keys, i.e. when
/// some rule declaring a QoS property could match it.
static bool isQosCandidate(const StyleResolver::RuleIndex &Index,
                           const Element &E) {
  auto Has = [](const std::vector<std::string> &Keys, std::string_view Key) {
    return std::binary_search(Keys.begin(), Keys.end(), Key, std::less<>());
  };
  if (Index.QosUniversal || (!E.id().empty() && Has(Index.QosIds, E.id())))
    return true;
  for (const std::string &Class : E.classes())
    if (Has(Index.QosClasses, Class))
      return true;
  for (const std::string &Tag : Index.QosTags)
    if (equalsIgnoreCase(Tag, E.tagName()))
      return true;
  return false;
}

std::shared_ptr<const StyleResolver::RuleIndex>
StyleResolver::buildIndex(const Stylesheet &Sheet) {
  auto Index = std::make_shared<RuleIndex>();
  buildIndexInto(*Index, Sheet);
  return Index;
}

const StyleResolver::RuleIndex &StyleResolver::activeIndex() const {
  if (Shared && Shared->RuleCount == Sheet.Rules.size())
    return *Shared;
  if (!IndexBuilt || Own.RuleCount != Sheet.Rules.size()) {
    buildIndexInto(Own, Sheet);
    Cache.clear();
    IndexBuilt = true;
    ++Stats.IndexBuilds;
  }
  return Own;
}

std::vector<MatchedRule> StyleResolver::matchRules(const Element &E) const {
  GW_PROF_SCOPE("css.match_indexed");
  const RuleIndex &Index = activeIndex();
  uint64_t Version = E.document().styleVersion();
  auto Cached = Cache.find(E.nodeId());
  if (Cached != Cache.end() && Cached->second.Version == Version) {
    ++Stats.CacheHits;
    return Cached->second.Matches;
  }
  ++Stats.CacheMisses;
  if (WarmBase) {
    auto Warm = WarmBase->find(E.nodeId());
    if (Warm != WarmBase->end() && Warm->second.Version == Version) {
      ++Stats.WarmHits;
      Cache[E.nodeId()] = Warm->second;
      return Warm->second.Matches;
    }
  }

  AncestorFilter Filter = buildAncestorFilter(E);
  // (rule, specificity) per confirmed candidate; folded to the best
  // specificity per rule below, mirroring the naive scan's choice of
  // each rule's most specific matching selector.
  std::vector<std::pair<uint32_t, Specificity>> Confirmed;
  auto Consider = [&](const std::vector<IndexedSelector> &Bucket) {
    for (const IndexedSelector &Indexed : Bucket) {
      ++Stats.Candidates;
      if (!Filter.mayMatch(Indexed.AncestorHints)) {
        ++Stats.FastRejects;
        continue;
      }
      const ComplexSelector &Selector =
          Sheet.Rules[Indexed.RuleIdx].Selectors[Indexed.SelIdx];
      if (!Selector.matches(E))
        continue;
      Confirmed.emplace_back(Indexed.RuleIdx, Selector.specificity());
    }
  };
  if (!E.id().empty())
    if (auto It = Index.IdBuckets.find(std::string_view(E.id()));
        It != Index.IdBuckets.end())
      Consider(It->second);
  for (const std::string &Class : E.classes())
    if (auto It = Index.ClassBuckets.find(std::string_view(Class));
        It != Index.ClassBuckets.end())
      Consider(It->second);
  if (auto It = Index.TagBuckets.find(std::string_view(toLower(E.tagName())));
      It != Index.TagBuckets.end())
    Consider(It->second);
  Consider(Index.UniversalBucket);

  // Best specificity per rule (source order is unique per rule, so the
  // final (Spec, Order) sort gives exactly the naive scan's order).
  std::sort(Confirmed.begin(), Confirmed.end());
  std::vector<MatchedRule> Matches;
  for (size_t I = 0; I < Confirmed.size();) {
    uint32_t RuleIdx = Confirmed[I].first;
    Specificity Best = Confirmed[I].second;
    for (++I; I < Confirmed.size() && Confirmed[I].first == RuleIdx; ++I)
      if (Best < Confirmed[I].second)
        Best = Confirmed[I].second;
    Matches.push_back({&Sheet.Rules[RuleIdx], Best, RuleIdx});
  }
  std::sort(Matches.begin(), Matches.end(),
            [](const MatchedRule &A, const MatchedRule &B) {
              if (A.Spec != B.Spec)
                return A.Spec < B.Spec;
              return A.Order < B.Order;
            });

  CacheEntry &Entry = Cache[E.nodeId()];
  Entry.Version = Version;
  Entry.Matches = Matches;
  return Matches;
}

//===----------------------------------------------------------------------===//
// Cascade queries
//===----------------------------------------------------------------------===//

std::string StyleResolver::computedValue(const Element &E,
                                         std::string_view Property) const {
  // Inline style wins over any stylesheet rule.
  std::string_view Inline = E.styleProperty(Property);
  if (!Inline.empty())
    return std::string(Inline);
  std::string Value;
  for (const MatchedRule &Match : matchRules(E))
    if (const Declaration *Decl = Match.Rule->find(Property))
      Value = Decl->ValueText;
  return Value;
}

std::map<std::string, std::string>
StyleResolver::computedStyle(const Element &E) const {
  std::map<std::string, std::string> Style;
  for (const MatchedRule &Match : matchRules(E))
    for (const Declaration &Decl : Match.Rule->Declarations)
      Style[Decl.Property] = Decl.ValueText;
  for (const auto &[Property, Value] : E.inlineStyle())
    Style[Property] = Value;
  return Style;
}

std::vector<TransitionSpec>
StyleResolver::transitionsFor(const Element &E) const {
  // Re-parse the winning `transition` declaration's tokens. Walk matches
  // from highest priority down so we stop at the cascade winner.
  std::vector<MatchedRule> Matches = matchRules(E);
  for (auto It = Matches.rbegin(), End = Matches.rend(); It != End; ++It)
    if (const Declaration *Decl = It->Rule->find("transition"))
      return parseTransitionValue(*Decl);
  return {};
}

std::vector<QosAnnotation>
StyleResolver::qosAnnotationsFor(const Element &E,
                                 std::vector<std::string> *Diags) const {
  // For each event name keep the highest-priority well-formed
  // declaration. Matches are in ascending priority, so later writes win.
  std::map<std::string, QosValue> ByEvent;
  for (const MatchedRule &Match : matchRules(E)) {
    bool RuleIsQos = false;
    for (const ComplexSelector &Selector : Match.Rule->Selectors)
      if (Selector.matches(E) && Selector.isQosQualified())
        RuleIsQos = true;
    for (const Declaration &Decl : Match.Rule->Declarations) {
      if (!isQosProperty(Decl.Property))
        continue;
      if (!RuleIsQos) {
        if (Diags)
          Diags->push_back(formatString(
              "line %u: QoS property '%s' in a rule without the :QoS "
              "selector qualifier; ignored",
              Decl.Line, Decl.Property.c_str()));
        continue;
      }
      QosParseResult Parsed = parseQosDeclaration(Decl);
      if (!Parsed.Error.empty()) {
        if (Diags)
          Diags->push_back(formatString("line %u: %s", Decl.Line,
                                        Parsed.Error.c_str()));
        continue;
      }
      ByEvent[Parsed.EventName] = Parsed.Value;
    }
  }
  std::vector<QosAnnotation> Result;
  for (auto &[EventName, Value] : ByEvent)
    Result.push_back({&E, EventName, Value});
  return Result;
}

std::vector<QosAnnotation>
StyleResolver::collectQosAnnotations(Document &Doc,
                                     std::vector<std::string> *Diags) const {
  const RuleIndex &Index = activeIndex();
  std::vector<QosAnnotation> All;
  Doc.forEachElement([&](Element &E) {
    ++Stats.QosScanWalked;
    if (!isQosCandidate(Index, E))
      return;
    ++Stats.QosScanMatched;
    std::vector<QosAnnotation> Anns = qosAnnotationsFor(E, Diags);
    All.insert(All.end(), Anns.begin(), Anns.end());
  });
  return All;
}
