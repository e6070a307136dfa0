//===- tests/support/StringUtilsTest.cpp - string helper tests --------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <gtest/gtest.h>

using namespace greenweb;

TEST(StringUtilsTest, Trim) {
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("\t\na b\r\n"), "a b");
}

TEST(StringUtilsTest, SplitKeepsEmptyPieces) {
  auto Pieces = split("a,,b,", ',');
  ASSERT_EQ(Pieces.size(), 4u);
  EXPECT_EQ(Pieces[0], "a");
  EXPECT_EQ(Pieces[1], "");
  EXPECT_EQ(Pieces[2], "b");
  EXPECT_EQ(Pieces[3], "");
}

TEST(StringUtilsTest, SplitNoSeparator) {
  auto Pieces = split("hello", ',');
  ASSERT_EQ(Pieces.size(), 1u);
  EXPECT_EQ(Pieces[0], "hello");
}

TEST(StringUtilsTest, SplitTrimmedDropsEmpties) {
  auto Pieces = splitTrimmed("  a ; ;b; ", ';');
  ASSERT_EQ(Pieces.size(), 2u);
  EXPECT_EQ(Pieces[0], "a");
  EXPECT_EQ(Pieces[1], "b");
}

TEST(StringUtilsTest, ToLower) {
  EXPECT_EQ(toLower("AbC-12"), "abc-12");
  EXPECT_EQ(toLower(""), "");
}

TEST(StringUtilsTest, StartsEndsWith) {
  EXPECT_TRUE(startsWith("ontouchstart-qos", "on"));
  EXPECT_FALSE(startsWith("on", "ont"));
  EXPECT_TRUE(endsWith("ontouchstart-qos", "-qos"));
  EXPECT_FALSE(endsWith("qos", "-qos"));
  EXPECT_TRUE(startsWith("x", ""));
  EXPECT_TRUE(endsWith("x", ""));
}

TEST(StringUtilsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(equalsIgnoreCase("QoS", "qos"));
  EXPECT_TRUE(equalsIgnoreCase("", ""));
  EXPECT_FALSE(equalsIgnoreCase("qos", "qo"));
  EXPECT_FALSE(equalsIgnoreCase("abc", "abd"));
}

TEST(StringUtilsTest, ParseInt) {
  EXPECT_EQ(parseInt("42"), 42);
  EXPECT_EQ(parseInt(" -7 "), -7);
  EXPECT_EQ(parseInt("0"), 0);
  EXPECT_FALSE(parseInt("").has_value());
  EXPECT_FALSE(parseInt("12px").has_value());
  EXPECT_FALSE(parseInt("abc").has_value());
  EXPECT_EQ(parseInt("-9223372036854775808"), INT64_MIN);
  EXPECT_FALSE(parseInt("9223372036854775808").has_value());
  EXPECT_FALSE(parseInt("-99999999999999999999").has_value());
}

TEST(StringUtilsTest, ParseCount) {
  EXPECT_EQ(parseCount<unsigned>("4"), 4u);
  EXPECT_EQ(parseCount<unsigned>("0"), 0u);
  EXPECT_EQ(parseCount<unsigned>("4294967295"), 4294967295u);
  EXPECT_FALSE(parseCount<unsigned>("4294967296").has_value());
  EXPECT_FALSE(parseCount<unsigned>("-1").has_value());
  EXPECT_FALSE(parseCount<unsigned>("3x").has_value());
  EXPECT_FALSE(parseCount<unsigned>("").has_value());
  EXPECT_EQ(parseCount<uint64_t>("9223372036854775807"), uint64_t(INT64_MAX));
}

TEST(StringUtilsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*parseDouble("16.6"), 16.6);
  EXPECT_DOUBLE_EQ(*parseDouble("-0.5"), -0.5);
  EXPECT_DOUBLE_EQ(*parseDouble("1e3"), 1000.0);
  EXPECT_FALSE(parseDouble("").has_value());
  EXPECT_FALSE(parseDouble("2s").has_value());
}

TEST(StringUtilsTest, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(formatString("%.2f%%", 31.9), "31.90%");
  // Long outputs are not truncated.
  std::string Long = formatString("%0500d", 1);
  EXPECT_EQ(Long.size(), 500u);
}
