//===- profiling/Profiler.h - Host-side self-profiler -----------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// gw_prof: a low-overhead host-side (wall-clock) profiler for the
/// simulator itself. The telemetry subsystem observes *simulated* time;
/// this one observes how long the simulator's own code takes on the
/// host, which is what the throughput work (docs/PERFORMANCE.md)
/// optimizes.
///
/// Instrumentation is the GW_PROF_SCOPE("name") RAII macro. When
/// profiling is disabled (the default) a scope costs one relaxed atomic
/// load and branch — cheap enough to leave in the event kernel's
/// per-event path permanently. When enabled, each scope enter/exit
/// appends a 16-byte record to a per-thread single-producer ring
/// buffer; nothing on the hot path takes a lock or allocates (after the
/// thread's first scope). Rings are drained — by the owning thread when
/// its ring fills, and by collect() at report time — into per-thread
/// scope trees that aggregate call counts, inclusive and self host-ns,
/// and a QuantileSketch of inclusive ns per unique call path, so
/// p50/p95/p99 survive aggregation (relative error <= 1.5625%).
///
/// An optional timer-based sampler thread captures each live thread's
/// current scope stack at a fixed period, for a statistical profile
/// that is independent of instrumentation density.
///
/// Exporters: a human-readable table, collapsed call stacks
/// ("a;b;c 1234", loadable by speedscope and flamegraph.pl), and
/// Chrome-trace "X" events on a dedicated host-time process so host
/// spans land in the same Perfetto view as the simulated-time tracks.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_PROFILING_PROFILER_H
#define GREENWEB_PROFILING_PROFILER_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace greenweb::json {
class Writer;
}

namespace greenweb::prof {

namespace detail {
/// The global master switch. A plain relaxed load keeps the disabled
/// GW_PROF_SCOPE cost to a single branch; see Scope.
extern std::atomic<bool> GlobalEnabled;

void recordEnter(const char *Name);
void recordExit();
} // namespace detail

/// True while profiling is capturing.
inline bool enabled() {
  return detail::GlobalEnabled.load(std::memory_order_relaxed);
}

/// Starts capturing. Scopes already on the C++ stack when profiling
/// starts are not captured (their enter predates the switch).
void start();

/// Stops capturing. Buffered events stay queued until collect().
void stop();

/// Drops all captured data (trees, rings, retained spans, samples).
/// Call only at a quiescent point: no thread may be inside an
/// instrumented scope.
void reset();

/// Host monotonic clock, nanoseconds from an arbitrary origin.
uint64_t hostNowNs();

/// Retain up to \p MaxSpans completed spans per thread for the
/// Chrome-trace host tracks (0 disables retention). Default 100000.
/// Aggregation is unaffected; retention only bounds timeline exports.
void setSpanRetention(size_t MaxSpans);

//===----------------------------------------------------------------------===//
// Collected profile snapshot
//===----------------------------------------------------------------------===//

/// One unique call path (stack of scope names) in the merged profile.
struct ProfileNode {
  std::string Path;  ///< Names joined with ';' ("sim.run;sim.fire").
  std::string Name;  ///< Leaf name.
  int Depth = 0;     ///< 0 for roots.
  uint64_t Count = 0;
  uint64_t InclNs = 0; ///< Wall ns inside this path, children included.
  uint64_t SelfNs = 0; ///< InclNs minus instrumented children.
  double P50Ns = 0, P95Ns = 0, P99Ns = 0; ///< Per-call inclusive ns.
};

/// One retained span for the host-time timeline.
struct ProfileSpan {
  std::string Path;
  uint64_t BeginNs = 0; ///< Host ns from profile start().
  uint64_t EndNs = 0;
  int Depth = 0;
  uint32_t ThreadIndex = 0;
};

/// One sampled stack from the timer sampler.
struct SampledStack {
  std::string Path; ///< Names joined with ';'.
  uint64_t Count = 0;
};

/// Everything collect() returns. Aggregates are merged across threads
/// by call path; spans keep their thread index for per-track layout.
struct Profile {
  std::vector<ProfileNode> Nodes;  ///< Sorted by Path.
  std::vector<ProfileSpan> Spans;  ///< Retained timeline spans.
  std::vector<SampledStack> Samples; ///< Timer-sampler stacks, by Path.
  std::vector<std::string> ThreadLabels; ///< Index -> label.
  uint64_t Events = 0;        ///< Enter+exit records captured.
  uint64_t DroppedSpans = 0;  ///< Spans not retained (cap reached).
  double OverheadNsPerEvent = 0; ///< Calibrated per-record cost.

  /// Estimated total profiler self-overhead folded into the numbers.
  double selfOverheadNs() const { return OverheadNsPerEvent * double(Events); }
  /// Total instrumented wall-ns across root scopes.
  uint64_t rootInclNs() const;
};

/// Drains every thread's ring into its tree and returns the merged
/// snapshot. Does not stop or reset capture; call at a point where
/// instrumented worker threads have joined (in-flight scopes deeper
/// than the drain point simply surface in a later collect).
Profile collect();

/// Measures the per-record enter/exit cost on this host (clock read +
/// ring push) with a scratch buffer; cached after the first call.
double calibrateOverheadNsPerEvent();

//===----------------------------------------------------------------------===//
// Timer sampler
//===----------------------------------------------------------------------===//

/// Starts a background thread that snapshots every registered thread's
/// live scope stack each \p PeriodMicros. No-op if already running.
void startSampler(uint64_t PeriodMicros);

/// Stops and joins the sampler thread (no-op when not running).
void stopSampler();

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

/// Collapsed-stack format from instrumented self-time: one line per
/// call path, "a;b;c <self-ns>". Loadable by speedscope and
/// flamegraph.pl (weights are nanoseconds).
std::string collapsedStacks(const Profile &P);

/// Collapsed-stack format from the timer sampler (weights are sample
/// counts); empty string when no samples were taken.
std::string collapsedSampleStacks(const Profile &P);

/// Appends the retained spans to an open Chrome-trace event array: one
/// "X" event per span under a dedicated host-time pid, with
/// thread_name metadata, each event on a new line. Timestamps are host
/// microseconds from profile start — a separate timebase from the
/// simulated tracks, which is why they live under their own process.
/// Writes nothing when no spans were retained.
void appendHostTraceEvents(json::Writer &W, const Profile &P);

/// Human-readable aggregate table, hottest self-time first.
std::string reportTable(const Profile &P, size_t MaxRows = 40);

//===----------------------------------------------------------------------===//
// GW_PROF_SCOPE
//===----------------------------------------------------------------------===//

/// RAII instrumentation scope. \p Name must be a string literal (or
/// otherwise outlive the process); names are interned by content at
/// drain time, never on the hot path.
class Scope {
public:
  explicit Scope(const char *Name) {
    if (!detail::GlobalEnabled.load(std::memory_order_relaxed))
      return; // Disabled cost: this one branch.
    Armed = true;
    detail::recordEnter(Name);
  }
  ~Scope() {
    if (Armed)
      detail::recordExit();
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  bool Armed = false;
};

} // namespace greenweb::prof

#define GW_PROF_CONCAT_IMPL(A, B) A##B
#define GW_PROF_CONCAT(A, B) GW_PROF_CONCAT_IMPL(A, B)
/// Profiles the enclosing block as \p NAME (a string literal).
#define GW_PROF_SCOPE(NAME)                                                    \
  ::greenweb::prof::Scope GW_PROF_CONCAT(GwProfScope_, __LINE__)(NAME)

#endif // GREENWEB_PROFILING_PROFILER_H
