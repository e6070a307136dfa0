//===- tests/support/SmallVectorTest.cpp - SmallVector tests --------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// SmallVector keeps the DOM's classes, attributes and children: order
// and values must survive the move from inline storage to the heap,
// mid-vector inserts (the sorted attribute lists) and copies (clone),
// and every element must be destroyed exactly once.
//
//===----------------------------------------------------------------------===//

#include "support/SmallVector.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

using namespace greenweb;

namespace {

std::vector<std::string> toVector(const SmallVector<std::string, 2> &V) {
  return {V.begin(), V.end()};
}

TEST(SmallVectorTest, GrowsPastInlineStorageInOrder) {
  SmallVector<std::string, 2> V;
  EXPECT_TRUE(V.empty());
  std::vector<std::string> Expected;
  for (int I = 0; I < 9; ++I) {
    // Long enough to own heap memory, so a botched move would show.
    std::string S = "value-number-" + std::to_string(I) + "-padded-out";
    V.push_back(S);
    Expected.push_back(S);
    EXPECT_EQ(toVector(V), Expected);
  }
  EXPECT_EQ(V.size(), 9u);
  EXPECT_EQ(V.front(), Expected.front());
  EXPECT_EQ(V.back(), Expected.back());
}

TEST(SmallVectorTest, InsertKeepsEveryOtherElement) {
  SmallVector<std::string, 2> V;
  V.insert(V.end(), "m");
  V.insert(V.begin(), "a"); // fills the inline storage
  V.insert(V.begin() + 1, "f"); // grows while shifting
  V.insert(V.end(), "z");
  V.insert(V.begin() + 3, "q");
  EXPECT_EQ(toVector(V), (std::vector<std::string>{"a", "f", "m", "q", "z"}));
}

TEST(SmallVectorTest, CopiesAreDeepAndIndependent) {
  SmallVector<std::string, 2> Small, Big;
  Small.push_back("one");
  for (int I = 0; I < 5; ++I)
    Big.push_back(std::string(40, char('a' + I)));
  SmallVector<std::string, 2> CopySmall(Small), CopyBig(Big);
  EXPECT_EQ(toVector(CopySmall), toVector(Small));
  EXPECT_EQ(toVector(CopyBig), toVector(Big));
  CopyBig[0] = "changed";
  EXPECT_EQ(Big[0], std::string(40, 'a'));
  CopySmall = Big;
  EXPECT_EQ(toVector(CopySmall), toVector(Big));
  CopySmall = Small;
  EXPECT_EQ(toVector(CopySmall), toVector(Small));
}

TEST(SmallVectorTest, DestroysEachElementOnce) {
  auto Token = std::make_shared<int>(0);
  {
    SmallVector<std::shared_ptr<int>, 1> V;
    for (int I = 0; I < 6; ++I)
      V.push_back(Token);
    V.insert(V.begin() + 2, std::shared_ptr<int>(Token));
    SmallVector<std::shared_ptr<int>, 1> Copy(V);
    EXPECT_EQ(Token.use_count(), 15);
    Copy.clear();
    EXPECT_EQ(Token.use_count(), 8);
  }
  EXPECT_EQ(Token.use_count(), 1);
}

} // namespace
