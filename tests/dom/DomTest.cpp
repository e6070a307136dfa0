//===- tests/dom/DomTest.cpp - DOM tests ---------------------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dom/Dom.h"

#include <gtest/gtest.h>

using namespace greenweb;

TEST(DomTest, RootElementExists) {
  Document Doc;
  EXPECT_EQ(Doc.root().tagName(), "html");
  EXPECT_EQ(Doc.elementCount(), 1u);
}

TEST(DomTest, NodeIdsAreUniqueAndMonotone) {
  Document Doc;
  Element *A = Doc.root().createChild("div");
  Element *B = Doc.root().createChild("div");
  EXPECT_LT(Doc.root().nodeId(), A->nodeId());
  EXPECT_LT(A->nodeId(), B->nodeId());
}

TEST(DomTest, IdIndexUpdatesOnSetId) {
  Document Doc;
  Element *E = Doc.root().createChild("div");
  EXPECT_EQ(Doc.getElementById("x"), nullptr);
  E->setId("x");
  EXPECT_EQ(Doc.getElementById("x"), E);
}

TEST(DomTest, ClassQueries) {
  Document Doc;
  Element *A = Doc.root().createChild("div");
  A->addClass("hot");
  Element *B = A->createChild("span");
  B->addClass("hot");
  B->addClass("hot"); // duplicate ignored
  EXPECT_EQ(B->classes().size(), 1u);
  EXPECT_EQ(Doc.getElementsByClass("hot").size(), 2u);
  EXPECT_EQ(Doc.getElementsByTag("span").size(), 1u);
}

TEST(DomTest, AttributeAccess) {
  Document Doc;
  Element *E = Doc.root().createChild("div");
  EXPECT_FALSE(E->hasAttribute("k"));
  EXPECT_EQ(E->attribute("k"), "");
  E->setAttribute("k", "v");
  EXPECT_TRUE(E->hasAttribute("k"));
  EXPECT_EQ(E->attribute("k"), "v");
}

TEST(DomTest, StyleMutationObserverFires) {
  Document Doc;
  Element *E = Doc.root().createChild("div");
  std::vector<std::string> Log;
  Doc.StyleMutationObserver = [&](Element &Target,
                                  const std::string &Prop,
                                  const std::string &Old,
                                  const std::string &New) {
    Log.push_back(Target.tagName() + ":" + Prop + ":" + Old + "->" + New);
  };
  E->setStyleProperty("width", "100px");
  E->setStyleProperty("width", "100px"); // unchanged: no notification
  E->setStyleProperty("width", "500px");
  ASSERT_EQ(Log.size(), 2u);
  EXPECT_EQ(Log[0], "div:width:->100px");
  EXPECT_EQ(Log[1], "div:width:100px->500px");
}

TEST(DomTest, EventListenersDispatch) {
  Document Doc;
  Element *E = Doc.root().createChild("button");
  int Hits = 0;
  E->addEventListener("click", [&](const Event &Ev) {
    EXPECT_EQ(Ev.Type, "click");
    EXPECT_EQ(Ev.Target, E);
    ++Hits;
  });
  E->addEventListener("click", [&](const Event &) { ++Hits; });
  EXPECT_EQ(E->dispatchEvent({"click", E, 1}), 2u);
  EXPECT_EQ(Hits, 2);
  EXPECT_EQ(E->dispatchEvent({"scroll", E, 2}), 0u);
}

TEST(DomTest, ListenerMayRegisterListenersDuringDispatch) {
  Document Doc;
  Element *E = Doc.root().createChild("div");
  E->addEventListener("click", [&](const Event &) {
    E->addEventListener("click", [](const Event &) {});
  });
  // Must not invalidate iteration.
  EXPECT_EQ(E->dispatchEvent({"click", E, 1}), 1u);
  EXPECT_EQ(E->dispatchEvent({"click", E, 2}), 2u);
}

TEST(DomTest, ListenedEventTypesSorted) {
  Document Doc;
  Element *E = Doc.root().createChild("div");
  E->addEventListener("touchstart", [](const Event &) {});
  E->addEventListener("click", [](const Event &) {});
  auto Types = E->listenedEventTypes();
  ASSERT_EQ(Types.size(), 2u);
  EXPECT_EQ(Types[0], "click");
  EXPECT_EQ(Types[1], "touchstart");
}

TEST(DomTest, PreOrderTraversal) {
  Document Doc;
  Element *A = Doc.root().createChild("a");
  Element *B = A->createChild("b");
  (void)B;
  Element *C = Doc.root().createChild("c");
  (void)C;
  std::vector<std::string> Order;
  Doc.forEachElement([&](Element &E) { Order.push_back(E.tagName()); });
  EXPECT_EQ(Order, (std::vector<std::string>{"html", "a", "b", "c"}));
}

TEST(DomTest, UserInputEventClassification) {
  EXPECT_TRUE(isUserInputEvent("click"));
  EXPECT_TRUE(isUserInputEvent("scroll"));
  EXPECT_TRUE(isUserInputEvent("touchstart"));
  EXPECT_TRUE(isUserInputEvent("touchend"));
  EXPECT_TRUE(isUserInputEvent("touchmove"));
  EXPECT_TRUE(isUserInputEvent("load"));
  EXPECT_FALSE(isUserInputEvent("transitionend"));
  EXPECT_FALSE(isUserInputEvent("animationend"));
  EXPECT_FALSE(isUserInputEvent("mouseover"));
  EXPECT_FALSE(isUserInputEvent("drag"));
}

namespace {

/// The count a fresh pre-order walk sees, independent of the document's
/// maintained counter.
size_t walkedCount(Document &Doc) {
  size_t N = 0;
  Doc.forEachElement([&](Element &) { ++N; });
  return N;
}

} // namespace

TEST(DomTest, ElementCountTracksEveryAttachment) {
  Document Doc;
  Element *Body = Doc.root().createChild("div");
  Body->createChild("p");
  EXPECT_EQ(Doc.elementCount(), 3u);
  EXPECT_EQ(Doc.elementCount(), walkedCount(Doc));

  // A detached three-level subtree counts only once it is attached, and
  // then with all of its descendants.
  Element *Sub = Doc.createElement("ul");
  Element *Li = Sub->createChild("li");
  Li->createChild("a");
  Li->createChild("b");
  Sub->createChild("li");
  EXPECT_EQ(Doc.elementCount(), 3u);
  Element *Ul = Body->appendChild(Sub);
  EXPECT_EQ(Doc.elementCount(), 8u);
  EXPECT_EQ(Doc.elementCount(), walkedCount(Doc));

  // Growing the attached subtree keeps counting.
  Ul->children()[0]->children()[0]->createChild("i");
  EXPECT_EQ(Doc.elementCount(), 9u);
  EXPECT_EQ(Doc.elementCount(), walkedCount(Doc));

  // Elements created but never attached are not counted.
  Element *Loose = Doc.createElement("span");
  Loose->createChild("em");
  EXPECT_EQ(Doc.elementCount(), walkedCount(Doc));
}

TEST(DomTest, ElementCountSurvivesCloneAndCloneGrowth) {
  Document Doc;
  Element *A = Doc.root().createChild("div");
  A->createChild("span")->createChild("b");
  std::unique_ptr<Document> Copy = Doc.clone();
  EXPECT_EQ(Copy->elementCount(), 4u);
  EXPECT_EQ(Copy->elementCount(), walkedCount(*Copy));

  Element *Sub = Copy->createElement("ul");
  Sub->createChild("li")->createChild("a");
  Copy->root().children()[0]->appendChild(Sub);
  Copy->root().createChild("footer");
  EXPECT_EQ(Copy->elementCount(), 8u);
  EXPECT_EQ(Copy->elementCount(), walkedCount(*Copy));
  // The original is untouched by the clone's growth.
  EXPECT_EQ(Doc.elementCount(), 4u);
  EXPECT_EQ(Doc.elementCount(), walkedCount(Doc));
}
