//===- telemetry/SchedTrace.h - Sweep scheduler observability ---*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scheduler observability for the parallel sweep path. A SchedTrace
/// gives every ParallelRunner worker a private per-thread event buffer
/// (lock-free by construction: each worker appends only to its own
/// vector) recording, for every work item, the config index, worker id,
/// start offset, run wall time, and a phase breakdown — plus the
/// post-batch serialized merge time per item. A SchedReport folds the
/// buffers into makespan, per-worker busy/idle fractions, parallel
/// efficiency, straggler top-k, and a speedup-loss attribution
/// (imbalance vs. merge serialization vs. scheduling overhead).
///
/// Unlike the rest of the telemetry layer, timestamps here are *host*
/// nanoseconds from std::chrono::steady_clock, relative to the batch
/// start — scheduling is a wall-clock phenomenon the virtual clock
/// cannot see. The trace is therefore opt-in and never merged into the
/// deterministic telemetry artifacts by default; the report *structure*
/// (item→worker assignment, counts, labels) is deterministic under
/// jobs=1, and the exported artifact replays byte-for-byte through
/// `gw-inspect sched` (the report is recomputed from the raw items and
/// compared against the embedded copy).
///
/// SchedProgress is the companion live progress meter: a TTY-aware,
/// throttled one-line status (completed/total, ETA, per-worker
/// utilization) written to stderr so instrumented stdout stays
/// byte-deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_TELEMETRY_SCHEDTRACE_H
#define GREENWEB_TELEMETRY_SCHEDTRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace greenweb::json {
class Writer;
}

namespace greenweb {

/// One work item as its worker saw it. All times are host nanoseconds;
/// StartNs is relative to the batch begin stamp.
struct SchedItem {
  uint64_t Item = 0;      ///< Config index in the sweep.
  unsigned Worker = 0;    ///< Claiming worker (0 = caller thread).
  std::string Label;      ///< Display label ("App|Governor", "seed 7").
  int64_t StartNs = 0;    ///< Claim time, relative to batch begin.
  int64_t RunNs = 0;      ///< Total wall time of the work item.
  int64_t SetupNs = 0;    ///< Phase: config copy + private hub setup.
  int64_t SimNs = 0;      ///< Phase: the simulation itself.
  int64_t HookNs = 0;     ///< Phase: hook + unmerged hub teardown.
  int64_t MergeNs = 0;    ///< Post-batch serialized merge of this item.
  int64_t HubRecords = 0; ///< Log records left in the private hub.
};

/// Per-worker scheduler event buffers plus the batch/merge window
/// stamps. Workers call record() concurrently (each on its own
/// buffer); everything else happens on the caller thread before or
/// after the batch.
class SchedTrace {
public:
  /// Arms the trace for a batch run by \p Workers workers. Resets any
  /// previous batch.
  void beginBatch(unsigned Workers, size_t Items);
  /// Stamps the end of the parallel window (before the serial merge).
  void endBatch();

  bool active() const { return Workers > 0; }
  /// Host nanoseconds since beginBatch (0 when inactive).
  int64_t sinceBatchBeginNs() const;

  /// Appends one finished item to its worker's private buffer. Only
  /// the owning worker thread may call this for a given Worker id.
  void record(SchedItem Item);

  /// Post-batch (caller thread): the serialized merge cost of \p Item.
  void noteMerge(uint64_t Item, int64_t MergeNs, int64_t HubRecords);
  /// Post-batch: the whole serialized merge window.
  void setMergeWindowNs(int64_t Ns) { MergeWindowNs = Ns; }

  unsigned workers() const { return Workers; }
  int64_t batchNs() const { return BatchNs; }
  int64_t mergeWindowNs() const { return MergeWindowNs; }

  /// All items across workers with merge costs folded in, sorted by
  /// item index (deterministic regardless of completion order).
  std::vector<SchedItem> items() const;

  /// Rebuilds a trace from exported parts (the gw-inspect replay path).
  static SchedTrace fromParts(unsigned Workers, int64_t BatchNs,
                              int64_t MergeWindowNs,
                              std::vector<SchedItem> Items);

private:
  unsigned Workers = 0;
  int64_t BatchNs = 0;
  int64_t MergeWindowNs = 0;
  std::chrono::steady_clock::time_point BatchBegin;
  std::vector<std::vector<SchedItem>> PerWorker;
  struct MergeNote {
    uint64_t Item;
    int64_t MergeNs;
    int64_t HubRecords;
  };
  std::vector<MergeNote> Merges;
};

/// The folded scheduler report; every number derives from the integer
/// nanosecond values in the trace, so recomputing it from an exported
/// artifact reproduces it byte-for-byte.
struct SchedReport {
  struct Worker {
    unsigned Id = 0;
    uint64_t Items = 0;
    int64_t BusyNs = 0; ///< Sum of item run times.
    int64_t WaitNs = 0; ///< Handout gaps (first claim + between items).
    double Utilization = 0.0; ///< BusyNs / batch window.
  };
  struct Straggler {
    uint64_t Item = 0;
    unsigned Worker = 0;
    std::string Label;
    int64_t RunNs = 0;
  };

  unsigned Workers = 0;
  uint64_t Items = 0;
  int64_t BatchNs = 0;
  int64_t MergeNs = 0;    ///< Serialized merge window.
  int64_t MakespanNs = 0; ///< BatchNs + MergeNs.
  int64_t SerialSumNs = 0;
  int64_t MaxBusyNs = 0;
  double Speedup = 0.0;    ///< SerialSumNs / MakespanNs.
  double Efficiency = 0.0; ///< SerialSumNs / (Workers * MakespanNs).
  /// Speedup-loss attribution: fractions of the makespan, summing to 1.
  ///   compute    = mean busy (the ideal parallel time)
  ///   imbalance  = max busy - mean busy (stragglers)
  ///   overhead   = batch - max busy (spawn/join/handout)
  ///   merge      = the serialized config-order merge
  double ComputeFraction = 0.0;
  double ImbalanceFraction = 0.0;
  double OverheadFraction = 0.0;
  double MergeFraction = 0.0;
  /// Phase totals across items; ItemOverheadNs is run time not
  /// accounted to any phase (allocation, result copies, ...).
  int64_t SetupNs = 0;
  int64_t SimNs = 0;
  int64_t HookNs = 0;
  int64_t ItemOverheadNs = 0;
  int64_t HubRecords = 0;
  std::vector<Worker> PerWorker;
  std::vector<Straggler> Stragglers; ///< Top-k by run time.

  static SchedReport fromTrace(const SchedTrace &Trace,
                               size_t StragglerTopK = 3);

  /// Deterministic JSON (integer nanoseconds, %.6f ratios).
  std::string toJson() const;
  /// Human-readable table for stdout.
  std::string format() const;
};

/// The --sched=<path> artifact: raw items + window stamps + the
/// embedded report, as one JSON document.
std::string schedArtifactJson(const SchedTrace &Trace,
                              const SchedReport &Report);

/// Parses a schedArtifactJson document back into a trace; false (with
/// \p Error set) when the document is not a sched artifact.
bool schedTraceFromArtifact(const std::string &Text, SchedTrace &Out,
                            std::string *Error = nullptr);

/// Extracts the embedded report object from a schedArtifactJson
/// document *byte-for-byte* (brace matching, string-aware), so parity
/// checks compare against exactly what the producer wrote. Empty when
/// absent.
std::string schedReportSectionFromArtifact(const std::string &Text);

/// Appends the scheduler's Chrome-trace events to an open event array:
/// one track per worker with an item slice per work item (phase
/// breakdown in args) and a "(wait)" slice per handout gap, plus the
/// serialized merge on the caller track. Each event starts a new line.
/// Writes nothing when the trace holds no items.
void appendSchedTraceEvents(json::Writer &W, const SchedTrace &Trace);

/// TTY-aware live progress for long sweeps. Workers call itemDone()
/// concurrently; rendering is throttled and goes to stderr (or the
/// configured stream) so instrumented stdout stays deterministic. On a
/// TTY the line redraws in place; otherwise plain lines are emitted at
/// a coarser cadence so CI logs stay readable.
class SchedProgress {
public:
  explicit SchedProgress(std::FILE *Out = stderr);

  void begin(unsigned Workers, size_t Items, std::string Label);
  /// Marks one item complete; \p BusyNs is the item's run wall time.
  void itemDone(unsigned Worker, int64_t BusyNs);
  /// Final render (with a newline) and disarm.
  void finish();

  /// The current status line (exposed for tests; no I/O).
  std::string renderLine() const;

private:
  void maybeRender(bool Force);

  std::FILE *Out;
  bool Tty = false;
  bool Armed = false;
  bool Rendered = false;
  unsigned Workers = 0;
  size_t Items = 0;
  std::string Label;
  std::chrono::steady_clock::time_point Begin;
  std::chrono::steady_clock::time_point LastRender;
  std::atomic<size_t> Done{0};
  std::unique_ptr<std::atomic<int64_t>[]> BusyNs;
  std::mutex RenderMu;
};

} // namespace greenweb

#endif // GREENWEB_TELEMETRY_SCHEDTRACE_H
