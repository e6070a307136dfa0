//===- tests/dom/DomCloneTest.cpp - Document::clone -----------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Document::clone underpins the warm-start page snapshot: clones must
// reproduce node ids, attributes, classes, and inline style verbatim
// (so shared style caches stay valid), rebuild the id index, and leave
// listeners and the mutation observer behind (the load path rebinds
// them). A document owns its elements: a clone shares no storage with
// its prototype, and elements a script creates die with the document.
//
//===----------------------------------------------------------------------===//

#include "browser/Browser.h"
#include "dom/Dom.h"
#include "html/HtmlParser.h"
#include "hw/AcmpChip.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace greenweb;

namespace {

const char *PageHtml = R"html(
<html>
  <body id="top" class="page main">
    <div id="menu" class="nav" onclick="1;">
      <span class="item" data-k="v">A</span>
      <span class="item">B</span>
    </div>
    <p id="text" style="color: red">hello</p>
  </body>
</html>
)html";

struct NodeFacts {
  uint64_t NodeId;
  std::string Tag, Id;
  std::vector<std::string> Classes;
  std::map<std::string, std::string> Attributes, InlineStyle;

  bool operator==(const NodeFacts &O) const {
    return NodeId == O.NodeId && Tag == O.Tag && Id == O.Id &&
           Classes == O.Classes && Attributes == O.Attributes &&
           InlineStyle == O.InlineStyle;
  }
};

std::vector<NodeFacts> factsOf(Document &Doc) {
  std::vector<NodeFacts> Facts;
  Doc.forEachElement([&](Element &E) {
    Facts.push_back(
        {E.nodeId(), E.tagName(), E.id(),
         {E.classes().begin(), E.classes().end()},
         {E.attributes().begin(), E.attributes().end()},
         {E.inlineStyle().begin(), E.inlineStyle().end()}});
  });
  return Facts;
}

TEST(DomCloneTest, CloneReproducesTreeNodeIdsAndStyleVersion) {
  html::ParseResult Parsed = html::parseHtml(PageHtml);
  ASSERT_TRUE(Parsed.Doc);
  Document &Doc = *Parsed.Doc;

  std::unique_ptr<Document> Copy = Doc.clone();
  ASSERT_TRUE(Copy);
  EXPECT_EQ(factsOf(Doc), factsOf(*Copy));
  EXPECT_EQ(Doc.styleVersion(), Copy->styleVersion());
  EXPECT_EQ(Doc.StyleTexts, Copy->StyleTexts);
  EXPECT_EQ(Doc.ScriptTexts, Copy->ScriptTexts);
}

TEST(DomCloneTest, CloneIsDeepAndIndependent) {
  html::ParseResult Parsed = html::parseHtml(PageHtml);
  ASSERT_TRUE(Parsed.Doc);
  std::unique_ptr<Document> Copy = Parsed.Doc->clone();

  Element *Orig = Parsed.Doc->getElementById("menu");
  Element *Cloned = Copy->getElementById("menu");
  ASSERT_TRUE(Orig);
  ASSERT_TRUE(Cloned);
  EXPECT_NE(Orig, Cloned);
  EXPECT_EQ(Orig->nodeId(), Cloned->nodeId());

  // Mutating the clone leaves the prototype untouched.
  Cloned->addClass("active");
  EXPECT_TRUE(Cloned->hasClass("active"));
  EXPECT_FALSE(Orig->hasClass("active"));

  // Parent links point into the clone, not the original tree.
  ASSERT_TRUE(Cloned->children().size() >= 2);
  EXPECT_EQ(Cloned->children()[0]->parent(), Cloned);
}

TEST(DomCloneTest, CloneContinuesNodeIdsWhereOriginalLeftOff) {
  html::ParseResult Parsed = html::parseHtml(PageHtml);
  ASSERT_TRUE(Parsed.Doc);
  std::unique_ptr<Document> Copy = Parsed.Doc->clone();

  // Fresh elements in original and clone draw the same next id, so a
  // warm run's dynamic DOM growth matches the cold run's ids exactly.
  Element *A = Parsed.Doc->root().createChild("div");
  Element *B = Copy->root().createChild("div");
  EXPECT_EQ(A->nodeId(), B->nodeId());
}

TEST(DomCloneTest, ListenersAndObserverAreNotCloned) {
  html::ParseResult Parsed = html::parseHtml(PageHtml);
  ASSERT_TRUE(Parsed.Doc);
  Element *Menu = Parsed.Doc->getElementById("menu");
  ASSERT_TRUE(Menu);
  Menu->addEventListener("click", [](const Event &) {});
  Parsed.Doc->StyleMutationObserver = [](Element &, const std::string &,
                                         const std::string &,
                                         const std::string &) {};

  std::unique_ptr<Document> Copy = Parsed.Doc->clone();
  Element *Cloned = Copy->getElementById("menu");
  ASSERT_TRUE(Cloned);
  EXPECT_TRUE(Menu->hasEventListener("click"));
  EXPECT_FALSE(Cloned->hasEventListener("click"));
  EXPECT_FALSE(Copy->StyleMutationObserver);
}

TEST(DomCloneTest, CloneOutlivesItsPrototype) {
  std::unique_ptr<Document> Copy;
  std::vector<NodeFacts> Expected;
  {
    html::ParseResult Parsed = html::parseHtml(PageHtml);
    ASSERT_TRUE(Parsed.Doc);
    Copy = Parsed.Doc->clone();
    Expected = factsOf(*Parsed.Doc);
  }
  // The prototype and its element storage are gone; the copy reads,
  // links and grows on its own.
  EXPECT_EQ(factsOf(*Copy), Expected);
  Element *Menu = Copy->getElementById("menu");
  ASSERT_TRUE(Menu);
  EXPECT_EQ(Menu->parent(), &Copy->root());
  ASSERT_EQ(Menu->children().size(), 2u);
  EXPECT_EQ(Menu->children()[1]->parent(), Menu);
  Element *Em = Menu->children()[0]->createChild("em");
  Em->setAttribute("k", "v");
  EXPECT_EQ(Em->attribute("k"), "v");
  EXPECT_EQ(Copy->elementCount(), Expected.size() + 1);
}

TEST(DomCloneTest, ScriptCreatedElementsAreFreedWithTheirDocument) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  auto Sentinel = std::make_shared<int>(0);
  std::weak_ptr<int> Watch = Sentinel;
  {
    Browser B(Sim, Chip);
    ASSERT_NE(B.loadPage(R"raw(
      <div id=list></div>
      <script>
        var l = document.getElementById('list');
        for (var i = 0; i < 40; i++) { l.createChild('div').createChild('b'); }
      </script>
    )raw"),
              0u);
    Sim.runUntil(Sim.now() + Duration::seconds(1));
    ASSERT_TRUE(B.ScriptErrors.empty());
    Element *List = B.document()->getElementById("list");
    ASSERT_TRUE(List);
    ASSERT_EQ(List->children().size(), 40u);
    // Every script-made element holds a share of the sentinel through a
    // listener, which is destroyed only with its element.
    size_t Made = 0;
    List->forEachInclusiveDescendant([&](Element &E) {
      if (&E == List)
        return;
      E.addEventListener("click", [Sentinel](const Event &) {});
      ++Made;
    });
    EXPECT_EQ(Made, 80u);
    Sentinel.reset();
    EXPECT_FALSE(Watch.expired());
  }
  EXPECT_TRUE(Watch.expired());
}

} // namespace
