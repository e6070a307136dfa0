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
// Per element, only matchRules is compared. computedStyle,
// transitionsFor and qosAnnotationsFor are functions of matchRules'
// output plus the element itself, so equal match lists on every element
// imply an equal cascade and equal QoS annotations. The document-wide
// annotation scan skips elements that hit no QoS subject key, so it is
// compared whole against the full scan: annotations and diagnostics, in
// order, on random documents and on every paper-suite page, cold and
// through a PageSnapshot.
//
//===----------------------------------------------------------------------===//

#include "ReferenceStyleMatch.h"
#include "browser/PageSnapshot.h"
#include "css/CssParser.h"
#include "css/StyleResolver.h"
#include "dom/Dom.h"
#include "html/HtmlParser.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "workloads/Apps.h"

#include <gtest/gtest.h>

#include <vector>

using namespace greenweb;
using namespace greenweb::css;
using reference::referenceCollectQosAnnotations;
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

/// Random stylesheet for the annotation scan: QoS rules with id, class,
/// upper- and lower-case tag and (when \p Universal) `*` subjects, plain
/// and behind descendant or child combinators; QoS properties in rules
/// without `:QoS` and malformed QoS values (both diagnostic paths); and
/// plain rules, whose subjects must not make an element a candidate.
std::string makeRandomQosSheet(Rng &R, int Rules, bool Universal) {
  const char *Tags[] = {"div", "span", "p", "DIV", "Span", "P"};
  const char *BareTags[] = {"p", "P", "span", "SPAN"};
  std::string Src;
  for (int I = 0; I < Rules; ++I) {
    // Ids and classes reach past the ones makeRandomDom draws, and bare
    // tag subjects never name div, so most documents keep
    // non-candidates.
    std::string Subject;
    switch (R.uniformInt(0, Universal ? 4 : 3)) {
    case 0:
      Subject = formatString("#id-%d", int(R.uniformInt(0, 39)));
      break;
    case 1:
      Subject = formatString(".cls-%d", int(R.uniformInt(0, 13)));
      break;
    case 2:
      Subject = BareTags[R.uniformInt(0, 3)];
      break;
    case 3:
      Subject = formatString("%s.cls-%d", Tags[R.uniformInt(0, 5)],
                             int(R.uniformInt(0, 13)));
      break;
    default:
      Subject = "*";
      break;
    }
    std::string Sel = Subject;
    switch (R.uniformInt(0, 2)) {
    case 0:
      Sel = formatString(".cls-%d %s", int(R.uniformInt(0, 6)),
                         Subject.c_str());
      break;
    case 1:
      Sel = formatString("%s > %s", Tags[R.uniformInt(0, 5)],
                         Subject.c_str());
      break;
    default:
      break;
    }
    const char *Event = R.chance(0.5) ? "onclick" : "ontouchmove";
    switch (R.uniformInt(0, 4)) {
    case 0: // Annotation.
      Src += formatString("%s:QoS { %s-qos: single, %s; }\n", Sel.c_str(),
                          Event, R.chance(0.5) ? "short" : "long");
      break;
    case 1: // Malformed value: a parse diagnostic.
      Src += formatString("%s:QoS { %s-qos: bogus; }\n", Sel.c_str(), Event);
      break;
    case 2: // No :QoS qualifier: a "rule without :QoS" diagnostic.
      Src += formatString("%s { %s-qos: continuous; }\n", Sel.c_str(),
                          Event);
      break;
    default: // Plain rule.
      Src += formatString("%s { width: %dpx; }\n", Sel.c_str(),
                          int(R.uniformInt(1, 500)));
      break;
    }
  }
  return Src;
}

void expectSameAnnotations(const std::vector<QosAnnotation> &A,
                           const std::vector<QosAnnotation> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Target->nodeId(), B[I].Target->nodeId());
    EXPECT_EQ(A[I].EventName, B[I].EventName);
    EXPECT_EQ(A[I].Value.Kind, B[I].Value.Kind);
    EXPECT_EQ(A[I].Value.LongDuration, B[I].Value.LongDuration);
    EXPECT_EQ(A[I].Value.Ti, B[I].Value.Ti);
    EXPECT_EQ(A[I].Value.Tu, B[I].Value.Tu);
  }
}

/// \p Resolver's filtered scan of \p Doc against the full scan by a
/// fresh resolver over the same sheet. Returns the filtered resolver's
/// stats.
StyleResolver::IndexStats expectScanParity(StyleResolver &Resolver,
                                           Document &Doc) {
  std::vector<std::string> Diags, RefDiags;
  std::vector<QosAnnotation> Anns =
      Resolver.collectQosAnnotations(Doc, &Diags);
  StyleResolver Full(Resolver.stylesheet());
  std::vector<QosAnnotation> Ref =
      referenceCollectQosAnnotations(Full, Doc, &RefDiags);
  expectSameAnnotations(Anns, Ref);
  EXPECT_EQ(Diags, RefDiags);
  return Resolver.indexStats();
}

TEST_P(StyleResolverParity, QosScanMatchesFullScan) {
  for (bool Universal : {false, true}) {
    Rng R(GetParam() ^ (Universal ? 0x5CA1u : 0x5CA0u));
    Stylesheet Sheet = parseStylesheet(makeRandomQosSheet(R, 20, Universal));
    Document Doc;
    std::vector<Element *> Elems = makeRandomDom(R, Doc, 80);
    // Upper-case tags, as a script's createChild may write them.
    for (int I = 0; I < 10; ++I)
      Elems[size_t(R.uniformInt(0, int64_t(Elems.size()) - 1))]
          ->createChild(R.chance(0.5) ? "DIV" : "Span")
          ->addClass(formatString("cls-%d", int(R.uniformInt(0, 6))));
    StyleResolver Resolver(Sheet);
    StyleResolver::IndexStats Stats = expectScanParity(Resolver, Doc);
    EXPECT_EQ(Stats.QosScanWalked, Doc.elementCount());
    if (!Universal) {
      EXPECT_LT(Stats.QosScanMatched, Stats.QosScanWalked);
    }
  }
}

TEST(StyleResolverParityTest, QosScanMatchesFullScanOnPaperSuitePages) {
  for (const std::string &App : allAppNames()) {
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      SCOPED_TRACE(App + " seed " + std::to_string(Seed));
      std::string Html = makeApp(App, Seed).Html;

      // Cold: a fresh parse and a resolver building its own index.
      html::ParseResult Parsed = html::parseHtml(Html);
      ASSERT_TRUE(Parsed.Doc);
      Stylesheet Sheet;
      for (const std::string &Text : Parsed.Doc->StyleTexts)
        Sheet.append(parseStylesheet(Text));
      StyleResolver Cold(Sheet);
      StyleResolver::IndexStats Stats = expectScanParity(Cold, *Parsed.Doc);
      EXPECT_GT(Cold.collectQosAnnotations(*Parsed.Doc).size(), 0u);
      EXPECT_EQ(Stats.QosScanWalked, Parsed.Doc->elementCount());
      EXPECT_LT(Stats.QosScanMatched, Stats.QosScanWalked);

      // Warm: a clone of the snapshot's prototype, the shared index and
      // the adopted style cache.
      PageSnapshot Snap = capturePageSnapshot(Html);
      ASSERT_TRUE(Snap.Proto);
      std::unique_ptr<Document> Copy = Snap.Proto->clone();
      StyleResolver Warm(*Snap.Sheet);
      Warm.shareIndex(Snap.Index);
      Warm.warmCache(Snap.StyleCache);
      Stats = expectScanParity(Warm, *Copy);
      // Every candidate's matches come from the snapshot.
      EXPECT_EQ(Stats.WarmHits, Stats.QosScanMatched);
      EXPECT_EQ(Snap.StyleCache->size(), Stats.QosScanMatched);
    }
  }
}

} // namespace
