//===- perfbench/Ledger.h - Per-layer host-time ledger ----------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's per-layer numbers, measured from outside the
/// program. Two sources, both already public:
///
///  - the gw-prof scopes in src/, captured with prof::start/collect
///    while a workload's passes run; each scope's self time goes to the
///    src/ module its name belongs to;
///  - the benchmark's own timed calls: spans around calls that contain
///    no gw-prof scope (attributed whole to one layer), and probes that
///    time each front end's entry points on the workload's own pages.
///
/// Layers are named after the src/ modules: sim, browser, html, css,
/// js, greenweb (whose scopes are named governor.*), hw, faults,
/// telemetry, workloads, profiling.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_PERFBENCH_LEDGER_H
#define GREENWEB_PERFBENCH_LEDGER_H

#include "Metrics.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace greenweb::prof {
struct Profile;
} // namespace greenweb::prof

namespace greenweb::perfbench {

/// Host monotonic nanoseconds.
uint64_t nowNs();

/// Host milliseconds elapsed since \p StartNs (a nowNs() reading).
inline double msSince(uint64_t StartNs) {
  return double(nowNs() - StartNs) / 1e6;
}

/// An (app, seed) pair a workload generates its pages from.
struct Page {
  std::string App;
  uint64_t Seed = 0;
};

/// Host ns the benchmark timed around scope-free calls, per layer.
using LayerSpans = std::map<std::string, uint64_t>;

/// The src/ module a gw-prof scope name belongs to ("governor.on_frame"
/// -> "greenweb"); the name's first component otherwise.
std::string layerOfScope(std::string_view Scope);

/// What the traced passes of one workload produced.
struct LedgerInput {
  const prof::Profile *Profile = nullptr;
  LayerSpans Spans;
  unsigned TracedPasses = 0;
  /// Sum over traced passes of wall ns x threads the workload keeps
  /// busy: the time the shares divide.
  double CapacityNs = 0.0;
  /// How much longer a captured pass takes than an uncaptured one.
  double OverheadPct = 0.0;
};

/// Adds <layer>.self_ms and <layer>.share for every layer,
/// <scope>.self_ms and <scope>.calls for every scope (per pass),
/// residual_share and profiling.overhead_pct. Returns the rendered
/// ledger table; its shares plus the residual add to 100%.
std::string addLedger(const LedgerInput &In, MetricSet &M);

/// Times the front ends' public entry points on \p Pages, \p Rounds
/// times over, and adds per-page means (the fastest round, as for the
/// end-to-end timings):
/// workloads.make_app_ms / build_assets_ms, html.parse_ms / bytes,
/// css.parse_ms / build_index_ms / match_cold_ns / match_warm_ns,
/// js.compile_ms / bytes, browser.load_cold_ms / load_warm_ms.
void probeLayers(const std::vector<Page> &Pages, unsigned Rounds,
                 MetricSet &M);

} // namespace greenweb::perfbench

#endif // GREENWEB_PERFBENCH_LEDGER_H
