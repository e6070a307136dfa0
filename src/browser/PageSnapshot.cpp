//===- browser/PageSnapshot.cpp - Reusable parsed-page assets -------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "browser/PageSnapshot.h"

#include "css/CssParser.h"
#include "html/HtmlParser.h"
#include "profiling/Profiler.h"

using namespace greenweb;

PageSnapshot greenweb::capturePageSnapshot(std::string_view Html) {
  GW_PROF_SCOPE("browser.capture_snapshot");
  PageSnapshot S;
  html::ParseResult Parsed = html::parseHtml(Html);
  S.Proto = std::move(Parsed.Doc);
  S.ParseDiagnostics = std::move(Parsed.Diagnostics);
  if (!S.Proto)
    return S;

  S.HtmlBytes = Html.size();
  auto Sheet = std::make_shared<css::Stylesheet>();
  for (const std::string &StyleText : S.Proto->StyleTexts) {
    S.CssBytes += StyleText.size();
    Sheet->append(css::parseStylesheet(StyleText));
  }
  for (const std::string &Script : S.Proto->ScriptTexts)
    S.JsBytes += Script.size();
  S.Sheet = std::move(Sheet);
  S.Index = css::StyleResolver::buildIndex(*S.Sheet);

  // Run the load's annotation scan once, against the prototype, and
  // keep its match results: clones reproduce node ids and the style
  // version, so every warm run's scan matches the same QoS candidates
  // by pure cache adoption.
  css::StyleResolver Resolver(*S.Sheet);
  Resolver.shareIndex(S.Index);
  Resolver.collectQosAnnotations(*S.Proto);
  S.StyleCache = Resolver.snapshotCache();
  return S;
}
