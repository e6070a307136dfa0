//===- tests/common/ReferenceStyleMatch.h - naive match oracle -*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The O(rules x selectors) rule scan that the indexed matcher in
/// css/StyleResolver replaced, kept as the reference oracle for the
/// parity tests and as the baseline leg of bench_throughput. Every
/// rule's every selector is tried against the element; a rule's cascade
/// priority is its most specific matching selector, and matches come
/// back in ascending (specificity, source order) — the order
/// StyleResolver::matchRules must reproduce exactly.
///
/// Also the full annotation scan that collectQosAnnotations' QoS
/// candidate filter replaced: qosAnnotationsFor on every element.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_TESTS_COMMON_REFERENCESTYLEMATCH_H
#define GREENWEB_TESTS_COMMON_REFERENCESTYLEMATCH_H

#include "css/CssAst.h"
#include "css/StyleResolver.h"
#include "dom/Dom.h"

#include <algorithm>
#include <string>
#include <vector>

namespace greenweb {
namespace reference {

inline std::vector<css::MatchedRule>
referenceMatchRules(const css::Stylesheet &Sheet, const Element &E) {
  std::vector<css::MatchedRule> Matches;
  for (size_t Order = 0; Order < Sheet.Rules.size(); ++Order) {
    const css::StyleRule &Rule = Sheet.Rules[Order];
    const css::ComplexSelector *Best = nullptr;
    for (const css::ComplexSelector &Selector : Rule.Selectors) {
      if (!Selector.matches(E))
        continue;
      if (!Best || Best->specificity() < Selector.specificity())
        Best = &Selector;
    }
    if (Best)
      Matches.push_back({&Rule, Best->specificity(), Order});
  }
  std::stable_sort(Matches.begin(), Matches.end(),
                   [](const css::MatchedRule &A, const css::MatchedRule &B) {
                     if (A.Spec != B.Spec)
                       return A.Spec < B.Spec;
                     return A.Order < B.Order;
                   });
  return Matches;
}

/// Every element's QoS annotations, and their diagnostics, pre-order:
/// what StyleResolver::collectQosAnnotations must return.
inline std::vector<css::QosAnnotation>
referenceCollectQosAnnotations(const css::StyleResolver &Resolver,
                               Document &Doc,
                               std::vector<std::string> *Diags) {
  std::vector<css::QosAnnotation> All;
  Doc.forEachElement([&](Element &E) {
    std::vector<css::QosAnnotation> Anns =
        Resolver.qosAnnotationsFor(E, Diags);
    All.insert(All.end(), Anns.begin(), Anns.end());
  });
  return All;
}

} // namespace reference
} // namespace greenweb

#endif // GREENWEB_TESTS_COMMON_REFERENCESTYLEMATCH_H
