//===- browser/PageSnapshot.h - Reusable parsed-page assets -----*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A PageSnapshot captures everything Browser::loadPage derives from raw
/// HTML that does not depend on the run: the parsed prototype document,
/// the parsed stylesheet, the selector rule index, the cold style-match
/// results of the load's annotation scan, the compiled page scripts and
/// inline handlers, and the byte counts the load interaction's simulated
/// costs are computed from. Building one costs the same as one cold
/// load's host-side setup; every subsequent Browser::loadPage(snapshot)
/// restores instead of re-deriving — the document is cloned (node ids
/// preserved), the stylesheet, index and compiled scripts are shared
/// read-only, and the style cache is adopted — then the load interaction
/// is replayed through the pipeline exactly as a cold load, so all
/// simulated behavior and telemetry stay byte-identical.
///
/// All shared members are immutable after capture, so one snapshot can
/// serve any number of browsers, concurrently (the per-run clones and
/// resolvers are private to their run).
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_BROWSER_PAGESNAPSHOT_H
#define GREENWEB_BROWSER_PAGESNAPSHOT_H

#include "css/CssAst.h"
#include "css/StyleResolver.h"
#include "dom/Dom.h"
#include "js/JsAst.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace greenweb {

/// A page's `<script>` texts and inline `on<event>` handler attributes,
/// each compiled once. Every entry holds its program, or (Program null)
/// the error text its compile raised. Programs are immutable, so one
/// list serves any number of browsers, concurrently. A cold load
/// compiles its own list; a warm restore shares its snapshot's.
struct PageScripts {
  struct Entry {
    std::shared_ptr<const js::Program> Program;
    std::string Error;
  };
  /// One per Document::ScriptTexts entry, in that order.
  std::vector<Entry> Scripts;
  /// One per handler attribute, in Document::forEachElement order and
  /// then attribute order: the order Browser binds them in.
  std::vector<Entry> Handlers;
};

/// Whether attribute \p Name is an inline `on<event>` handler.
bool isInlineHandlerAttribute(std::string_view Name);

/// Compiles every script and inline handler of \p Doc in document order
/// (the document is only read).
PageScripts compilePageScripts(Document &Doc);

/// Immutable post-parse page state shared across warm-start runs.
struct PageSnapshot {
  /// Pristine parsed document (no listeners, no observer); cloned per
  /// run. Null when the source failed to parse at all.
  std::unique_ptr<Document> Proto;
  /// Stylesheet parsed from the prototype's <style> blocks, shared
  /// read-only by every run's resolver.
  std::shared_ptr<const css::Stylesheet> Sheet;
  /// Selector index over Sheet, built once.
  std::shared_ptr<const css::StyleResolver::RuleIndex> Index;
  /// Cold matched-rules results for every element the annotation scan
  /// matches (its QoS candidates), at the prototype's post-parse style
  /// version; clones start at the same version and with the same node
  /// ids, so runs adopt these instead of matching.
  std::shared_ptr<const css::StyleResolver::MatchCache> StyleCache;
  /// The prototype's compiled scripts and handlers; clones carry the
  /// same handler attributes in the same order.
  std::shared_ptr<const PageScripts> Scripts;
  /// Source sizes driving the simulated parse-task costs.
  size_t HtmlBytes = 0;
  size_t CssBytes = 0;
  size_t JsBytes = 0;
  /// HTML parser diagnostics from capture (informational).
  std::vector<std::string> ParseDiagnostics;
};

/// Parses \p Html and captures the reusable assets. The returned
/// snapshot's Proto is null when parsing produced no document (the
/// caller's loadPage will then report failure the same way a cold load
/// would).
PageSnapshot capturePageSnapshot(std::string_view Html);

} // namespace greenweb

#endif // GREENWEB_BROWSER_PAGESNAPSHOT_H
