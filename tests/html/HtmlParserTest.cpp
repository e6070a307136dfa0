//===- tests/html/HtmlParserTest.cpp - HTML parser tests ----------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "html/HtmlParser.h"

#include "support/StringUtils.h"
#include "workloads/Apps.h"

#include <gtest/gtest.h>

using namespace greenweb;
using namespace greenweb::html;

TEST(HtmlParserTest, EmptyDocumentHasRoot) {
  ParseResult R = parseHtml("");
  ASSERT_NE(R.Doc, nullptr);
  EXPECT_EQ(R.Doc->root().tagName(), "html");
  EXPECT_EQ(R.Doc->elementCount(), 1u);
}

TEST(HtmlParserTest, NestedElements) {
  ParseResult R = parseHtml("<div><span></span><p></p></div>");
  Element &Root = R.Doc->root();
  ASSERT_EQ(Root.children().size(), 1u);
  Element *Div = Root.children()[0];
  EXPECT_EQ(Div->tagName(), "div");
  ASSERT_EQ(Div->children().size(), 2u);
  EXPECT_EQ(Div->children()[0]->tagName(), "span");
  EXPECT_EQ(Div->children()[1]->tagName(), "p");
}

TEST(HtmlParserTest, IdClassAndAttributes) {
  ParseResult R = parseHtml(
      "<div id=\"intro\" class=\"a b\" data-x=\"7\" checked></div>");
  Element *E = R.Doc->getElementById("intro");
  ASSERT_NE(E, nullptr);
  EXPECT_TRUE(E->hasClass("a"));
  EXPECT_TRUE(E->hasClass("b"));
  EXPECT_EQ(E->attribute("data-x"), "7");
  EXPECT_TRUE(E->hasAttribute("checked"));
}

TEST(HtmlParserTest, UnquotedAndSingleQuotedAttributes) {
  ParseResult R = parseHtml("<div id=plain class='q'></div>");
  Element *E = R.Doc->getElementById("plain");
  ASSERT_NE(E, nullptr);
  EXPECT_TRUE(E->hasClass("q"));
}

TEST(HtmlParserTest, InlineStyleParsed) {
  ParseResult R =
      parseHtml("<div id=x style=\"width: 100px; COLOR: red\"></div>");
  Element *E = R.Doc->getElementById("x");
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->styleProperty("width"), "100px");
  EXPECT_EQ(E->styleProperty("color"), "red");
}

TEST(HtmlParserTest, VoidAndSelfClosingTags) {
  ParseResult R = parseHtml("<div><br><img src=x><span/></div><p></p>");
  Element *Div = R.Doc->root().children()[0];
  EXPECT_EQ(Div->children().size(), 3u);
  // <p> is a sibling of <div>, not swallowed by the void tags.
  EXPECT_EQ(R.Doc->root().children().size(), 2u);
}

TEST(HtmlParserTest, StyleBlockCaptured) {
  ParseResult R =
      parseHtml("<style>div { color: red }</style><div></div>");
  ASSERT_EQ(R.Doc->StyleTexts.size(), 1u);
  EXPECT_NE(R.Doc->StyleTexts[0].find("color: red"), std::string::npos);
}

TEST(HtmlParserTest, ScriptBlockCapturedRaw) {
  // Script bodies may contain '<' without confusing the parser.
  ParseResult R =
      parseHtml("<script>if (a < b) { f(); }</script><div id=after></div>");
  ASSERT_EQ(R.Doc->ScriptTexts.size(), 1u);
  EXPECT_NE(R.Doc->ScriptTexts[0].find("a < b"), std::string::npos);
  EXPECT_NE(R.Doc->getElementById("after"), nullptr);
}

TEST(HtmlParserTest, MultipleStyleAndScriptBlocksInOrder) {
  ParseResult R = parseHtml(
      "<style>one</style><script>s1</script><style>two</style>");
  ASSERT_EQ(R.Doc->StyleTexts.size(), 2u);
  EXPECT_EQ(R.Doc->StyleTexts[0], "one");
  EXPECT_EQ(R.Doc->StyleTexts[1], "two");
  ASSERT_EQ(R.Doc->ScriptTexts.size(), 1u);
}

TEST(HtmlParserTest, CommentsSkipped) {
  ParseResult R = parseHtml("<!-- <div id=no></div> --><div id=yes></div>");
  EXPECT_EQ(R.Doc->getElementById("no"), nullptr);
  EXPECT_NE(R.Doc->getElementById("yes"), nullptr);
}

TEST(HtmlParserTest, DoctypeSkipped) {
  ParseResult R = parseHtml("<!DOCTYPE html><div id=a></div>");
  EXPECT_NE(R.Doc->getElementById("a"), nullptr);
}

TEST(HtmlParserTest, HtmlBodyHeadCollapseToRoot) {
  ParseResult R =
      parseHtml("<html><head></head><body><div id=x></div></body></html>");
  Element *X = R.Doc->getElementById("x");
  ASSERT_NE(X, nullptr);
  EXPECT_EQ(X->parent(), &R.Doc->root());
}

TEST(HtmlParserTest, TextContentAttached) {
  ParseResult R = parseHtml("<div id=t>hello world</div>");
  EXPECT_EQ(R.Doc->getElementById("t")->attribute("text"), "hello world");
}

TEST(HtmlParserTest, StrayCloseTagDiagnosed) {
  ParseResult R = parseHtml("<div></span></div>");
  EXPECT_FALSE(R.Diagnostics.empty());
  // Structure survives.
  EXPECT_EQ(R.Doc->root().children().size(), 1u);
}

TEST(HtmlParserTest, UnclosedElementDiagnosed) {
  ParseResult R = parseHtml("<div><span>");
  EXPECT_FALSE(R.Diagnostics.empty());
  EXPECT_EQ(R.Doc->elementCount(), 3u);
}

TEST(HtmlParserTest, InlineEventHandlerAttributes) {
  ParseResult R =
      parseHtml("<div id=b onclick=\"doThing()\" "
                "ontouchstart=\"other()\"></div>");
  Element *B = R.Doc->getElementById("b");
  EXPECT_EQ(B->attribute("onclick"), "doThing()");
  EXPECT_EQ(B->attribute("ontouchstart"), "other()");
}

TEST(HtmlParserTest, CaseInsensitiveTagsLowered) {
  ParseResult R = parseHtml("<DIV id=c></DIV>");
  Element *C = R.Doc->getElementById("c");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->tagName(), "div");
}

TEST(HtmlParserTest, LargeFlatDocument) {
  std::string Src;
  for (int I = 0; I < 500; ++I)
    Src += "<div class=item></div>";
  ParseResult R = parseHtml(Src);
  EXPECT_EQ(R.Doc->elementCount(), 501u);
  EXPECT_EQ(R.Doc->getElementsByClass("item").size(), 500u);
}

//===----------------------------------------------------------------------===//
// Diagnostics and DOM shape, pinned byte for byte
//===----------------------------------------------------------------------===//

namespace {

using Diags = std::vector<std::string>;

Diags diagnosticsOf(std::string_view Source) {
  return parseHtml(Source).Diagnostics;
}

} // namespace

TEST(HtmlParserTest, UnterminatedCommentDiagnosticText) {
  EXPECT_EQ(diagnosticsOf("<div>\n<!-- never\nclosed"),
            (Diags{"line 3: unterminated comment",
                   "unclosed element <div> at end of input"}));
}

TEST(HtmlParserTest, UnterminatedScriptDiagnosticText) {
  ParseResult R = parseHtml("<p>\n</p>\n<script>\nvar a = 1; </scr\n");
  EXPECT_EQ(R.Diagnostics, (Diags{"line 5: unterminated <script> block"}));
  ASSERT_EQ(R.Doc->ScriptTexts.size(), 1u);
  EXPECT_EQ(R.Doc->ScriptTexts[0], "\nvar a = 1; </scr\n");
}

TEST(HtmlParserTest, UnterminatedStyleDiagnosticText) {
  ParseResult R = parseHtml("<style>\ndiv { color: red }\n</div>");
  EXPECT_EQ(R.Diagnostics, (Diags{"line 3: unterminated <style> block"}));
  ASSERT_EQ(R.Doc->StyleTexts.size(), 1u);
  EXPECT_EQ(R.Doc->StyleTexts[0], "\ndiv { color: red }\n</div>");
}

TEST(HtmlParserTest, RawTextCloseTagIsCaseInsensitive) {
  ParseResult R =
      parseHtml("<script>a</sc b</SCRIPT junk>\n<div id=after></div>");
  EXPECT_TRUE(R.Diagnostics.empty());
  ASSERT_EQ(R.Doc->ScriptTexts.size(), 1u);
  EXPECT_EQ(R.Doc->ScriptTexts[0], "a</sc b");
  EXPECT_NE(R.Doc->getElementById("after"), nullptr);
}

TEST(HtmlParserTest, StrayCloseTagDiagnosticText) {
  EXPECT_EQ(diagnosticsOf("<div>\n\n</SPAN  x>\n</div>\n</p>"),
            (Diags{"line 3: stray close tag </span>",
                   "line 5: stray close tag </p>"}));
}

TEST(HtmlParserTest, UnterminatedOpenTagDiagnosticText) {
  EXPECT_EQ(diagnosticsOf("<div>\n<p class='x'\n  id=y"),
            (Diags{"line 3: unterminated open tag",
                   "unclosed element <p> at end of input"}));
}

TEST(HtmlParserTest, UnexpectedCharacterInTagDiagnosticText) {
  ParseResult R = parseHtml("\n<div @a=1 id=z></div>");
  EXPECT_EQ(R.Diagnostics,
            (Diags{"line 2: unexpected character '@' in tag"}));
  Element *Z = R.Doc->getElementById("z");
  ASSERT_NE(Z, nullptr);
  EXPECT_EQ(Z->attribute("a"), "1");
}

TEST(HtmlParserTest, StrayLessThanDiagnosticText) {
  ParseResult R = parseHtml("<div id=t>\n  a\n\n  b < c\n</div>");
  EXPECT_EQ(R.Diagnostics, (Diags{"line 4: stray '<'"}));
  EXPECT_EQ(R.Doc->getElementById("t")->attribute("text"), "a\n\n  b c");
}

TEST(HtmlParserTest, DiscardedWrappersDrawNodeIds) {
  ParseResult R = parseHtml("<html lang=en><head></head><body><div id=a>"
                            "</div></body></html>");
  // root = 1, the discarded <html>/<head>/<body> draw 2..4.
  EXPECT_EQ(R.Doc->getElementById("a")->nodeId(), 5u);
  // Their close tags never match an open element.
  EXPECT_EQ(R.Diagnostics, (Diags{"line 1: stray close tag </head>",
                                  "line 1: stray close tag </body>",
                                  "line 1: stray close tag </html>"}));
}

namespace {

/// FNV-1a over a canonical dump of everything the parser builds: every
/// element pre-order (node id, parent id, tag, id, classes, attributes
/// including "text", inline style), the raw style/script texts, and the
/// diagnostics.
uint64_t parseDigest(std::string_view Source) {
  ParseResult R = parseHtml(Source);
  std::string Dump;
  R.Doc->forEachElement([&](Element &E) {
    Dump += formatString("%llu<%llu %s#%s",
                         static_cast<unsigned long long>(E.nodeId()),
                         static_cast<unsigned long long>(
                             E.parent() ? E.parent()->nodeId() : 0),
                         E.tagName().c_str(), E.id().c_str());
    for (const std::string &C : E.classes())
      Dump += "." + C;
    for (const auto &[K, V] : E.attributes())
      Dump += "|" + K + "=" + V;
    for (const auto &[K, V] : E.inlineStyle())
      Dump += ";" + K + ":" + V;
    Dump += '\n';
  });
  for (const std::string &T : R.Doc->StyleTexts)
    Dump += "<style>" + T + "\n";
  for (const std::string &T : R.Doc->ScriptTexts)
    Dump += "<script>" + T + "\n";
  for (const std::string &D : R.Diagnostics)
    Dump += "!" + D + "\n";
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : Dump) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

} // namespace

TEST(HtmlParserTest, PaperSuitePagesParseToRecordedDoms) {
  // One digest per app, in allAppNames() order, recorded with the
  // character-at-a-time scanner the slice scanner replaced. Page markup
  // does not depend on the seed, so seeds 1-3 share an app's digest.
  const std::vector<uint64_t> Expected = {
      0x8b91a2461e937b03ull, 0x58a585680b11923aull, 0x69bdb383505b4c48ull,
      0x601cce9de39c4d43ull, 0x24adad788539368dull, 0xc3f1b0e1eee45763ull,
      0x84fc32799430ef28ull, 0x2fdde539fb8d2121ull, 0x799c25b55e3aa2d1ull,
      0x0021bb00fa5164efull, 0x41d281de3ae2bc0aull, 0x3842d59a287445d1ull,
  };
  std::vector<std::string> Apps = allAppNames();
  ASSERT_EQ(Apps.size(), Expected.size());
  for (size_t A = 0; A < Apps.size(); ++A)
    for (uint64_t Seed = 1; Seed <= 3; ++Seed)
      EXPECT_EQ(parseDigest(makeApp(Apps[A], Seed).Html), Expected[A])
          << Apps[A] << " seed " << Seed;
}
