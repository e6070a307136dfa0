//===- perfbench/Ledger.cpp - Per-layer host-time ledger ------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include "browser/Browser.h"
#include "css/CssParser.h"
#include "css/StyleResolver.h"
#include "hw/AcmpChip.h"
#include "html/HtmlParser.h"
#include "js/JsInterp.h"
#include "profiling/Profiler.h"
#include "sim/Simulator.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "workloads/Apps.h"
#include "workloads/WorkloadAssets.h"

#include <algorithm>
#include <chrono>

using namespace greenweb;
using namespace greenweb::perfbench;

uint64_t perfbench::nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

namespace {

/// Every src/ module, in dependency order; the ledger has one row each.
const char *const Layers[] = {"sim",      "hw",       "faults", "html",
                              "css",      "js",       "browser", "greenweb",
                              "telemetry", "workloads"};

/// The existing gw-prof scopes the per-layer table names. Each gets a
/// .self_ms/.calls pair even on workloads where it never fires.
const char *const NamedScopes[] = {
    "workloads.experiment",  "workloads.build_assets",
    "workloads.parallel_item", "css.match_indexed",
    "css.build_index",       "browser.pipeline_stage",
    "browser.vsync",         "browser.begin_frame",
    "browser.dispatch_input", "browser.load_snapshot",
    "sim.run_until",         "sim.thread.start_task",
    "sim.calendar.advance",  "sim.compact",
    "governor.on_frame",     "governor.apply_config"};

struct ScopeTotal {
  uint64_t SelfNs = 0;
  uint64_t Calls = 0;
};

} // namespace

std::string perfbench::layerOfScope(std::string_view Scope) {
  std::string_view Head = Scope.substr(0, Scope.find('.'));
  if (Head == "governor")
    return "greenweb";
  return std::string(Head);
}

std::string perfbench::addLedger(const LedgerInput &In, MetricSet &M) {
  double Passes = double(std::max(1u, In.TracedPasses));
  std::map<std::string, ScopeTotal> Scopes;
  for (const char *Name : NamedScopes)
    Scopes[Name];
  for (const prof::ProfileNode &N : In.Profile->Nodes) {
    ScopeTotal &T = Scopes[N.Name];
    T.SelfNs += N.SelfNs;
    T.Calls += N.Count;
  }

  std::map<std::string, double> LayerNs;
  for (const auto &[Name, T] : Scopes)
    LayerNs[layerOfScope(Name)] += double(T.SelfNs);
  for (const auto &[Layer, Ns] : In.Spans)
    LayerNs[Layer] += double(Ns);

  double Capacity = std::max(1.0, In.CapacityNs);
  TablePrinter Table("per-layer ledger (self time per pass; shares of "
                     "traced wall x threads)");
  Table.row().cell("layer").cell("self ms/pass").cell("share");
  double Attributed = 0.0;
  for (const char *Layer : Layers) {
    double Ns = LayerNs.count(Layer) ? LayerNs[Layer] : 0.0;
    double Share = 100.0 * Ns / Capacity;
    Attributed += Share;
    M.add(std::string(Layer) + ".self_ms", Ns / Passes / 1e6, "ms");
    M.add(std::string(Layer) + ".share", Share, "%");
    Table.row().cell(Layer).cell(Ns / Passes / 1e6, 3).cell(
        formatString("%.2f%%", Share));
  }
  double Residual = 100.0 - Attributed;
  M.add("residual_share", Residual, "%");
  Table.row().cell("residual").cell("").cell(formatString("%.2f%%", Residual));

  double Estimated = 100.0 * In.Profile->selfOverheadNs() / Capacity;
  M.add("profiling.overhead_pct", In.OverheadPct, "%");
  M.add("profiling.estimated_pct", Estimated, "%");

  TablePrinter ScopeTable("gw-prof scopes (per pass)");
  ScopeTable.row().cell("scope").cell("layer").cell("self ms").cell("calls");
  for (const auto &[Name, T] : Scopes) {
    M.add(Name + ".self_ms", double(T.SelfNs) / Passes / 1e6, "ms");
    M.add(Name + ".calls", double(T.Calls) / Passes, "count");
    ScopeTable.row()
        .cell(Name)
        .cell(layerOfScope(Name))
        .cell(double(T.SelfNs) / Passes / 1e6, 3)
        .cell(double(T.Calls) / Passes, 1);
  }
  return Table.render() +
         formatString("profiling.overhead_pct %.2f%% (median traced / "
                      "untraced ratio of adjacent passes); gw-prof's own "
                      "estimate of its cost inside the shares: %.2f%%\n\n",
                      In.OverheadPct, Estimated) +
         ScopeTable.render();
}

namespace {

/// Per-round sums over all pages of one probe quantity.
struct ProbeSeries {
  const char *Name;
  const char *Unit;
  std::vector<double> RoundTotals;
  double Divisor = 1.0; ///< Pages, or elements for per-element probes.
};

/// Results of the probed calls land here so none is optimized away.
volatile size_t ProbeSink = 0;

} // namespace

void perfbench::probeLayers(const std::vector<Page> &Pages, unsigned Rounds,
                            MetricSet &M) {
  enum {
    MakeApp,
    BuildAssets,
    HtmlParse,
    HtmlBytes,
    CssParse,
    CssBuildIndex,
    CssMatchCold,
    CssMatchWarm,
    JsCompile,
    JsBytes,
    LoadCold,
    LoadWarm,
    NumProbes
  };
  ProbeSeries Series[NumProbes] = {
      {"workloads.make_app_ms", "ms", {}},
      {"workloads.build_assets_ms", "ms", {}},
      {"html.parse_ms", "ms", {}},
      {"html.bytes", "count", {}},
      {"css.parse_ms", "ms", {}},
      {"css.build_index_ms", "ms", {}},
      {"css.match_cold_ns", "ns", {}},
      {"css.match_warm_ns", "ns", {}},
      {"js.compile_ms", "ms", {}},
      {"js.bytes", "count", {}},
      {"browser.load_cold_ms", "ms", {}},
      {"browser.load_warm_ms", "ms", {}},
  };
  size_t Elements = 0;
  size_t MatchSink = 0;
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    double Totals[NumProbes] = {};
    Elements = 0;
    for (const Page &P : Pages) {
      uint64_t T = nowNs();
      AppDefinition App = makeApp(P.App, P.Seed);
      Totals[MakeApp] += msSince(T);

      T = nowNs();
      PageAssets Assets = buildPageAssets(P.App, P.Seed);
      Totals[BuildAssets] += msSince(T);

      T = nowNs();
      html::ParseResult Parsed = html::parseHtml(App.Html);
      Totals[HtmlParse] += msSince(T);
      Totals[HtmlBytes] += double(App.Html.size());
      Document &Doc = *Parsed.Doc;

      css::Stylesheet Sheet;
      T = nowNs();
      for (const std::string &Text : Doc.StyleTexts)
        Sheet.append(css::parseStylesheet(Text));
      Totals[CssParse] += msSince(T);

      T = nowNs();
      auto Index = css::StyleResolver::buildIndex(Sheet);
      Totals[CssBuildIndex] += msSince(T);

      css::StyleResolver Resolver(Sheet);
      Resolver.shareIndex(Index);
      Elements += Doc.elementCount();
      Doc.bumpStyleVersion();
      T = nowNs();
      Doc.forEachElement(
          [&](Element &E) { MatchSink += Resolver.matchRules(E).size(); });
      Totals[CssMatchCold] += double(nowNs() - T);
      T = nowNs();
      Doc.forEachElement(
          [&](Element &E) { MatchSink += Resolver.matchRules(E).size(); });
      Totals[CssMatchWarm] += double(nowNs() - T);

      js::Interpreter Interp;
      for (const std::string &Script : Doc.ScriptTexts) {
        T = nowNs();
        MatchSink += Interp.compile(Script) != nullptr;
        Totals[JsCompile] += msSince(T);
        Totals[JsBytes] += double(Script.size());
      }

      {
        Simulator Sim;
        AcmpChip Chip(Sim);
        Browser B(Sim, Chip);
        T = nowNs();
        B.loadPage(App.Html);
        Totals[LoadCold] += msSince(T);
      }
      {
        Simulator Sim;
        AcmpChip Chip(Sim);
        Browser B(Sim, Chip);
        T = nowNs();
        B.loadPage(Assets.Snapshot);
        Totals[LoadWarm] += msSince(T);
      }
    }
    for (int I = 0; I < NumProbes; ++I)
      Series[I].RoundTotals.push_back(Totals[I]);
  }
  for (ProbeSeries &S : Series)
    S.Divisor = double(Pages.size());
  Series[CssMatchCold].Divisor = Series[CssMatchWarm].Divisor =
      double(std::max<size_t>(1, Elements));
  for (const ProbeSeries &S : Series) {
    std::vector<double> PerUnit;
    for (double Total : S.RoundTotals)
      PerUnit.push_back(Total / S.Divisor);
    M.add(S.Name, *std::min_element(PerUnit.begin(), PerUnit.end()), S.Unit,
          PerUnit);
  }
  ProbeSink = MatchSink;
}
