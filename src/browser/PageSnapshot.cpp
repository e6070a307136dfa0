//===- browser/PageSnapshot.cpp - Reusable parsed-page assets -------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "browser/PageSnapshot.h"

#include "css/CssParser.h"
#include "html/HtmlParser.h"
#include "js/JsInterp.h"
#include "profiling/Profiler.h"
#include "support/StringUtils.h"

using namespace greenweb;

bool greenweb::isInlineHandlerAttribute(std::string_view Name) {
  return Name.size() > 2 && startsWith(Name, "on");
}

PageScripts greenweb::compilePageScripts(Document &Doc) {
  PageScripts Out;
  auto Compile = [](std::string_view Source) {
    PageScripts::Entry E;
    E.Program = js::compileProgram(Source, E.Error);
    return E;
  };
  Out.Scripts.reserve(Doc.ScriptTexts.size());
  for (const std::string &Source : Doc.ScriptTexts)
    Out.Scripts.push_back(Compile(Source));
  Doc.forEachElement([&](Element &E) {
    for (const auto &[Name, Source] : E.attributes())
      if (isInlineHandlerAttribute(Name))
        Out.Handlers.push_back(Compile(Source));
  });
  return Out;
}

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
  S.Scripts = std::make_shared<const PageScripts>(compilePageScripts(*S.Proto));
  return S;
}
