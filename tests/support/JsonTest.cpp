//===- tests/support/JsonTest.cpp - JSON document parser tests ------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

using greenweb::json::Value;
namespace json = greenweb::json;

namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(json::parse("null")->isNull());
  EXPECT_TRUE(json::parse("true")->B);
  EXPECT_FALSE(json::parse("false")->B);
  EXPECT_DOUBLE_EQ(json::parse("42")->Num, 42.0);
  EXPECT_DOUBLE_EQ(json::parse("-3.5e2")->Num, -350.0);
  EXPECT_EQ(json::parse("\"hi\"")->Str, "hi");
}

TEST(JsonTest, ParsesStringEscapes) {
  auto V = json::parse("\"a\\\"b\\\\c\\n\\t\\u0041\"");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->Str, "a\"b\\c\n\tA");
}

TEST(JsonTest, ParsesNestedDocument) {
  const char *Doc = R"({
    "harness": "bench_x",
    "count": 3,
    "ok": true,
    "items": [1, 2.5, "s", null, {"k": "v"}],
    "nested": {"inner": {"deep": -1}}
  })";
  auto V = json::parse(Doc);
  ASSERT_TRUE(V.has_value());
  ASSERT_TRUE(V->isObject());
  EXPECT_EQ(V->stringOr("harness", ""), "bench_x");
  EXPECT_EQ(V->get("count")->Num, 3.0);
  EXPECT_EQ(V->stringOr("missing", "dflt"), "dflt");
  EXPECT_EQ(V->get("missing"), nullptr);

  const Value *Items = V->get("items");
  ASSERT_NE(Items, nullptr);
  ASSERT_TRUE(Items->isArray());
  ASSERT_EQ(Items->Arr.size(), 5u);
  EXPECT_DOUBLE_EQ(Items->Arr[1].Num, 2.5);
  EXPECT_TRUE(Items->Arr[3].isNull());
  EXPECT_EQ(Items->Arr[4].stringOr("k", ""), "v");

  const Value *Nested = V->get("nested");
  ASSERT_NE(Nested, nullptr);
  const Value *Inner = Nested->get("inner");
  ASSERT_NE(Inner, nullptr);
  EXPECT_DOUBLE_EQ(Inner->get("deep")->Num, -1.0);
}

TEST(JsonTest, PreservesMemberOrder) {
  auto V = json::parse("{\"z\": 1, \"a\": 2, \"m\": 3}");
  ASSERT_TRUE(V.has_value());
  ASSERT_EQ(V->Obj.size(), 3u);
  EXPECT_EQ(V->Obj[0].first, "z");
  EXPECT_EQ(V->Obj[1].first, "a");
  EXPECT_EQ(V->Obj[2].first, "m");
}

TEST(JsonTest, RejectsMalformedInput) {
  std::string Error;
  EXPECT_FALSE(json::parse("", &Error).has_value());
  EXPECT_FALSE(json::parse("{", &Error).has_value());
  EXPECT_FALSE(json::parse("[1, 2,", &Error).has_value());
  EXPECT_FALSE(json::parse("{\"a\" 1}", &Error).has_value());
  EXPECT_FALSE(json::parse("\"unterminated", &Error).has_value());
  EXPECT_FALSE(json::parse("nul", &Error).has_value());
  EXPECT_FALSE(Error.empty());
}

TEST(JsonTest, RejectsTrailingContent) {
  // Exactly one value: a second document on the same input must fail,
  // which is what routes JSONL logs to the line-by-line ingest path.
  EXPECT_FALSE(json::parse("{\"a\":1}\n{\"b\":2}").has_value());
  EXPECT_TRUE(json::parse("  {\"a\":1}  \n").has_value());
}

TEST(JsonTest, RejectsWhatStrictJsonRejects) {
  std::string Error;
  // Raw control characters must be escaped inside strings.
  EXPECT_FALSE(json::parse("\"a\nb\"", &Error));
  EXPECT_NE(Error.find("control character"), std::string::npos) << Error;
  EXPECT_FALSE(json::parse(std::string("\"a\0b\"", 5)));
  EXPECT_FALSE(json::parse("{\"k\tey\":1}"));
  EXPECT_TRUE(json::parse("\"a\\nb\\u0001\""));
  // Numbers need digits after the point and in the exponent, and no
  // leading zeros.
  for (const char *Bad : {"1.", "1e", "1e+", "1E-", "-", "-.5", ".5", "01",
                          "-01", "1.e5", "[1.]", "{\"a\":1e}"}) {
    EXPECT_FALSE(json::parse(Bad, &Error)) << Bad;
    EXPECT_FALSE(Error.empty()) << Bad;
  }
  for (const char *Good : {"0", "-0", "0.5", "1e5", "1E+5", "-1.25e-3", "10"})
    EXPECT_TRUE(json::parse(Good)) << Good;
  // Unknown and truncated escapes.
  EXPECT_FALSE(json::parse("\"\\x\""));
  EXPECT_FALSE(json::parse("\"\\u12\""));
}

TEST(JsonTest, MarksIntegralNumbers) {
  auto V = json::parse("[3, -0, 3.0, 3e0, -12]");
  ASSERT_TRUE(V);
  std::vector<bool> Integral;
  for (const Value &N : V->Arr)
    Integral.push_back(N.Integral);
  EXPECT_EQ(Integral, (std::vector<bool>{true, true, false, false, true}));
  EXPECT_EQ(V->Arr[4].Num, -12.0);
}

TEST(JsonTest, CapsNestingDepthWithADiagnostic) {
  std::string Error;
  std::string Deep(200000, '[');
  EXPECT_FALSE(json::parse(Deep, &Error));
  EXPECT_NE(Error.find("nesting deeper than"), std::string::npos) << Error;
  std::string Objects;
  for (int I = 0; I < 100000; ++I)
    Objects += "{\"a\":";
  EXPECT_FALSE(json::parse(Objects, &Error));
  EXPECT_NE(Error.find("nesting deeper than"), std::string::npos) << Error;

  // Exactly the cap still parses; one more level does not.
  auto Nested = [](unsigned Depth) {
    return std::string(Depth, '[') + std::string(Depth, ']');
  };
  EXPECT_TRUE(json::parse(Nested(json::MaxDepth)));
  EXPECT_FALSE(json::parse(Nested(json::MaxDepth + 1)));
  // Depth counts open containers, not how many came before.
  std::string Siblings = "[";
  for (int I = 0; I < 1000; ++I)
    Siblings += I ? ",[[1]]" : "[[1]]";
  EXPECT_TRUE(json::parse(Siblings + "]"));
}

TEST(JsonWriterTest, PlacesSeparatorsAndEscapes) {
  std::string Out;
  json::Writer W(Out);
  W.beginObject().key("a").integer(-3).key("b\"").beginArray();
  W.uinteger(18446744073709551615ull).str("x\ny\x01").boolean(true);
  W.beginObject().endObject().beginArray().endArray().endArray();
  W.key("c").str({"p", "\"q\"", ""}).endObject();
  EXPECT_EQ(Out, "{\"a\":-3,\"b\\\"\":[18446744073709551615,\"x\\ny\\u0001\","
                 "true,{},[]],\"c\":\"p\\\"q\\\"\"}");
  std::optional<json::Value> Back = json::parse(Out);
  ASSERT_TRUE(Back);
  EXPECT_EQ(Back->get("b\"")->Arr[1].Str, "x\ny\x01");
}

TEST(JsonWriterTest, NumberFormatsMatchTheirPrintfConversions) {
  std::string Out;
  json::Writer W(Out);
  W.beginArray().fixed(2.5, 0).fixed(-0.0005, 3).integer(-7).uinteger(7);
  W.g17(0.1).shortest(0.1).shortest(1.0 / 3.0).hexfloat(1.0).endArray();
  EXPECT_EQ(Out, "[2,-0.001,-7,7,0.10000000000000001,0.1,"
                 "0.3333333333333333,\"0x1p+0\"]");
}

TEST(JsonWriterTest, LineBreaksGoAfterTheSeparator) {
  std::string Out;
  json::Writer W(Out);
  W.beginArray().lineBreak();
  for (int I = 0; I < 2; ++I)
    W.integer(I).lineBreak();
  W.endArray();
  EXPECT_EQ(Out, "[\n0,\n1\n]");

  Out.clear();
  json::Writer Trace(Out);
  Trace.beginArray().integer(0).lineBreak().integer(1).endArray();
  EXPECT_EQ(Out, "[0,\n1]");
}

TEST(JsonTest, AccessorsAreTypeSafe) {
  auto V = json::parse("{\"s\": \"x\", \"n\": 5}");
  ASSERT_TRUE(V.has_value());
  // Wrong-typed members fall back to the default.
  EXPECT_EQ(V->stringOr("n", "d"), "d");
  // get() on a non-object is null.
  auto Arr = json::parse("[1]");
  EXPECT_EQ(Arr->get("k"), nullptr);
}

TEST(JsonTest, ReaderReadsTypedFieldsAndDefaults) {
  auto V = json::parse(R"({"n": 3, "i": -4, "x": 2.5, "b": true,
      "s": "str", "l": ["a", "b"], "h": "0x1.8p+1", "inf": "inf",
      "arr": [1], "obj": {"k": 1}})");
  ASSERT_TRUE(V.has_value());
  json::Reader R(*V, "doc");
  EXPECT_EQ(R.count("n", 0, 10), 3u);
  EXPECT_EQ(R.integer("i", 0, -10, 10), -4);
  EXPECT_EQ(R.number("x", 0.0), 2.5);
  EXPECT_TRUE(R.boolean("b", false));
  EXPECT_EQ(R.string("s"), "str");
  EXPECT_EQ(R.strings("l"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(R.hexfloat("h", 0.0), 3.0);
  EXPECT_EQ(R.hexfloat("inf", 0.0), HUGE_VAL);
  ASSERT_NE(R.array("arr"), nullptr);
  EXPECT_EQ(R.count(R.array("arr")->Arr[0], "arr"), 1u);
  ASSERT_NE(R.object("obj"), nullptr);
  // Absent keys read as the default.
  EXPECT_EQ(R.count("missing", 7), 7u);
  EXPECT_EQ(R.string("missing", "d"), "d");
  EXPECT_TRUE(R.finish(nullptr));
}

TEST(JsonTest, ReaderKeepsTheFirstErrorNamingKeyAndValue) {
  struct Case {
    const char *Doc;
    std::function<void(json::Reader &)> Read;
    const char *Expect;
  };
  for (const Case &C : {
           Case{R"({"k": 1.5})", [](json::Reader &R) { R.count("k", 0); },
                R"(doc field "k" is 1.5: )"
                "count is not an integer in [0, 2^53]"},
           Case{R"({"k": -1})", [](json::Reader &R) { R.count("k", 0, 9); },
                R"(doc field "k" is -1: count is not an integer in [0, 9])"},
           Case{R"({"k": 1e300})",
                [](json::Reader &R) { R.integer("k", 0, -5, 5); },
                R"(doc field "k" is 1e+300: )"
                "value is not an integer in [-5, 5]"},
           Case{R"({"k": "3"})", [](json::Reader &R) { R.number("k", 0); },
                R"(doc field "k" is "3": value is not a finite number)"},
           Case{R"({"k": 2})", [](json::Reader &R) { R.number("k", 0, 0, 1); },
                R"(doc field "k" is 2: value is not a number in [0, 1])"},
           Case{R"({"k": 1e999})", [](json::Reader &R) { R.number("k", 0); },
                R"(doc field "k" is inf: value is not a finite number)"},
           Case{R"({"k": [1]})", [](json::Reader &R) { R.strings("k"); },
                R"(doc field "k" is an array: )"
                "value is not an array of strings"},
           Case{R"({"k": "0x1pz"})",
                [](json::Reader &R) { R.hexfloat("k", 0); },
                R"(doc field "k" is "0x1pz": value is not a hex-float string)"},
           Case{R"({"k": null})",
                [](json::Reader &R) { R.boolean("k", false); },
                R"(doc field "k" is null: value is not a boolean)"},
           Case{R"({"k": {}})", [](json::Reader &R) { R.string("k"); },
                R"(doc field "k" is an object: value is not a string)"},
           Case{R"({})", [](json::Reader &R) { R.array("k"); },
                R"(doc has no "k" array)"},
           Case{R"({"k": [{"n": -2}]})",
                [](json::Reader &R) {
                  R.child(R.array("k")->Arr[0], "item 0").count("n", 0);
                },
                R"(item 0 field "n" is -2: )"
                "count is not an integer in [0, 2^53]"},
           Case{R"([1])", [](json::Reader &) {}, "doc is not a JSON object"},
       }) {
    auto V = json::parse(C.Doc);
    ASSERT_TRUE(V.has_value()) << C.Doc;
    json::Reader R(*V, "doc");
    C.Read(R);
    // Later errors and reads change nothing: the first diagnostic stays
    // and every read returns its default.
    R.fail("a later error");
    EXPECT_EQ(R.count("k", 42), 42u);
    std::string Error;
    EXPECT_FALSE(R.finish(&Error));
    EXPECT_EQ(Error, C.Expect) << C.Doc;
  }
  // Long strings are cut in the diagnostic.
  json::Reader Long(R"({"k": ")" + std::string(100, 'x') + R"("})", "doc");
  Long.count("k", 0);
  std::string Error;
  Long.finish(&Error);
  EXPECT_EQ(Error, "doc field \"k\" is \"" + std::string(40, 'x') +
                       "...\": count is not an integer in [0, 2^53]");
}

TEST(JsonTest, ReaderParsesText) {
  json::Reader Ok(R"({"a": 1})", "doc");
  EXPECT_EQ(Ok.count("a", 0), 1u);
  EXPECT_TRUE(Ok.ok());
  json::Reader Bad("{\"a\": ", "doc");
  std::string Error;
  EXPECT_FALSE(Bad.finish(&Error));
  EXPECT_EQ(Error.rfind("doc is invalid JSON: ", 0), 0u) << Error;
  json::Reader Scalar("7", "doc");
  Scalar.finish(&Error);
  EXPECT_EQ(Error, "doc is not a JSON object");
}

} // namespace
