//===- tests/css/StyleResolverParityTest.cpp - index vs naive parity ------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
// Randomized differential tests: the bucketed/Bloom-filtered/cached
// matcher must produce byte-identical output to the reference
// O(rules x selectors) scan (tests/common/ReferenceStyleMatch.h) on
// arbitrary documents and stylesheets, including :QoS-qualified rules,
// and must stay identical across cache-invalidating DOM mutations.
//
// Only matchRules is compared. computedStyle, transitionsFor and
// qosAnnotationsFor are functions of matchRules' output plus the
// element itself, so equal match lists on every element imply an
// equal cascade and equal QoS annotations.
//
//===----------------------------------------------------------------------===//

#include "ReferenceStyleMatch.h"
#include "css/CssParser.h"
#include "css/StyleResolver.h"
#include "dom/Dom.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <vector>

using namespace greenweb;
using namespace greenweb::css;
using reference::referenceMatchRules;

namespace {

/// Random stylesheet over a small identifier universe so selectors and
/// elements collide often (the interesting case for an index).
std::string makeRandomSheet(Rng &R, int Rules) {
  const char *Tags[] = {"div", "span", "p"};
  std::string Src;
  for (int I = 0; I < Rules; ++I) {
    std::string Sel;
    switch (R.uniformInt(0, 6)) {
    case 0:
      Sel = formatString("%s#id-%d.cls-%d", Tags[R.uniformInt(0, 2)],
                         int(R.uniformInt(0, 19)), int(R.uniformInt(0, 6)));
      break;
    case 1:
      Sel = formatString(".cls-%d", int(R.uniformInt(0, 6)));
      break;
    case 2:
      Sel = formatString("#id-%d .cls-%d", int(R.uniformInt(0, 19)),
                         int(R.uniformInt(0, 6)));
      break;
    case 3:
      Sel = formatString("%s.cls-%d > %s", Tags[R.uniformInt(0, 2)],
                         int(R.uniformInt(0, 6)), Tags[R.uniformInt(0, 2)]);
      break;
    case 4:
      Sel = formatString("%s#id-%d", Tags[R.uniformInt(0, 2)],
                         int(R.uniformInt(0, 19)));
      break;
    case 5:
      Sel = "*";
      break;
    default:
      Sel = formatString(".cls-%d %s", int(R.uniformInt(0, 6)),
                         Tags[R.uniformInt(0, 2)]);
      break;
    }
    // A third of the rules carry GreenWeb annotations, exercising the
    // :QoS qualifier through both matchers.
    if (R.chance(0.33)) {
      Sel += ":QoS";
      Src += formatString("%s { onclick-qos: single, %s; width: %dpx; }\n",
                          Sel.c_str(), R.chance(0.5) ? "short" : "long",
                          int(R.uniformInt(1, 500)));
    } else {
      Src += formatString("%s { width: %dpx; color: c%d; }\n", Sel.c_str(),
                          int(R.uniformInt(1, 500)), int(R.uniformInt(0, 9)));
    }
  }
  return Src;
}

/// Random tree: each element picks a random existing parent, so depth
/// and fan-out vary; ids/classes draw from the sheet's universe.
std::vector<Element *> makeRandomDom(Rng &R, Document &Doc, int Count) {
  const char *Tags[] = {"div", "span", "p"};
  std::vector<Element *> Elems;
  Elems.push_back(&Doc.root());
  for (int I = 0; I < Count; ++I) {
    Element *Parent = Elems[size_t(R.uniformInt(0, int64_t(Elems.size()) - 1))];
    Element *E = Parent->createChild(Tags[R.uniformInt(0, 2)]);
    if (R.chance(0.5))
      E->setId(formatString("id-%d", int(R.uniformInt(0, 19))));
    if (R.chance(0.6))
      E->addClass(formatString("cls-%d", int(R.uniformInt(0, 6))));
    if (R.chance(0.2))
      E->addClass(formatString("cls-%d", int(R.uniformInt(0, 6))));
    if (R.chance(0.2))
      E->setStyleProperty("color", formatString("inline%d", int(I)));
    Elems.push_back(E);
  }
  return Elems;
}

void expectSameMatches(const std::vector<MatchedRule> &A,
                       const std::vector<MatchedRule> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Rule, B[I].Rule);
    EXPECT_EQ(A[I].Order, B[I].Order);
  }
}

/// Full-document parity: the indexed resolver against the reference
/// scan on every element.
void expectFullParity(const Stylesheet &Sheet,
                      const std::vector<Element *> &Elems) {
  StyleResolver Indexed(Sheet);
  for (const Element *E : Elems)
    expectSameMatches(Indexed.matchRules(*E), referenceMatchRules(Sheet, *E));
}

class StyleResolverParity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StyleResolverParity, RandomDocumentMatchesNaive) {
  Rng R(GetParam());
  Stylesheet Sheet = parseStylesheet(makeRandomSheet(R, 60));
  Document Doc;
  std::vector<Element *> Elems = makeRandomDom(R, Doc, 80);
  expectFullParity(Sheet, Elems);
}

TEST_P(StyleResolverParity, ParityHoldsAcrossMutationChurn) {
  Rng R(GetParam() ^ 0xD1CEu);
  Stylesheet Sheet = parseStylesheet(makeRandomSheet(R, 40));
  Document Doc;
  std::vector<Element *> Elems = makeRandomDom(R, Doc, 50);
  StyleResolver Indexed(Sheet);
  for (int Round = 0; Round < 5; ++Round) {
    // Warm the per-element cache, then mutate: every mutation bumps the
    // document's style version, so stale cache entries would surface as
    // a parity break right here.
    for (const Element *E : Elems)
      (void)Indexed.matchRules(*E);
    for (int M = 0; M < 10; ++M) {
      Element *E = Elems[size_t(R.uniformInt(0, int64_t(Elems.size()) - 1))];
      switch (R.uniformInt(0, 2)) {
      case 0:
        E->setId(formatString("id-%d", int(R.uniformInt(0, 19))));
        break;
      case 1:
        E->addClass(formatString("cls-%d", int(R.uniformInt(0, 6))));
        break;
      default:
        E->setStyleProperty("width",
                            formatString("%dpx", int(R.uniformInt(1, 99))));
        break;
      }
    }
    for (const Element *E : Elems)
      expectSameMatches(Indexed.matchRules(*E), referenceMatchRules(Sheet, *E));
  }
  EXPECT_GT(Indexed.indexStats().CacheHits, 0u);
  EXPECT_GT(Indexed.indexStats().CacheMisses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StyleResolverParity,
                         ::testing::Values(1u, 2u, 3u, 17u, 1234u));

TEST(StyleResolverParityTest, GrowingSubtreeInvalidatesCache) {
  Stylesheet Sheet = parseStylesheet(".cls-0 div { width: 10px; }\n");
  Document Doc;
  Element *Parent = Doc.root().createChild("div");
  Parent->addClass("cls-0");
  StyleResolver Resolver(Sheet);
  Element *Child = Parent->createChild("div");
  EXPECT_EQ(Resolver.matchRules(*Child).size(), 1u);
  // New subtree attached after a cached lookup must still be seen.
  Element *Late = Parent->createChild("div");
  expectSameMatches(Resolver.matchRules(*Late),
                    referenceMatchRules(Sheet, *Late));
  EXPECT_EQ(Resolver.matchRules(*Late).size(), 1u);
}

} // namespace
