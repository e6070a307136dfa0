//===- workloads/ParallelRunner.h - Parallel scenario fan-out ---*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fans independent experiment configurations over a thread pool. Each
/// simulation is fully isolated — its own Simulator, hardware model,
/// browser stack, and (when requested) its own Telemetry hub — so runs
/// never share mutable state and every run produces bit-identical
/// results to a serial execution of the same config. Determinism of the
/// *aggregate* is preserved by merging per-run telemetry into the shared
/// hub in configuration index order, never completion order.
///
/// The evaluation sweeps (full_evaluation, bench_paper_suite) are
/// embarrassingly parallel: a sweep is |apps| x |governors| x |seeds|
/// independent simulations whose only interaction is the final table.
/// This runner is the one place that fan-out lives.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_WORKLOADS_PARALLELRUNNER_H
#define GREENWEB_WORKLOADS_PARALLELRUNNER_H

#include "workloads/Experiment.h"

#include <cstddef>
#include <functional>
#include <vector>

namespace greenweb {

class SchedProgress;
class SchedTrace;
class Telemetry;

/// A minimal fork-join index pool: run Fn(0..Count-1) across up to
/// `jobs` threads with dynamic work handout (an atomic next-index
/// counter, so long and short simulations pack well). With one job (or
/// one item) everything runs inline on the caller thread — no thread is
/// ever spawned, which keeps single-job runs exactly as debuggable (and
/// exactly as ordered) as before the runner existed.
class ParallelRunner {
public:
  /// \p Jobs = 0 selects std::thread::hardware_concurrency (min 1).
  explicit ParallelRunner(unsigned Jobs = 0);

  unsigned jobs() const { return Jobs; }

  /// Invokes \p Fn(I) once for every I in [0, Count). Blocks until all
  /// invocations finish. \p Fn must not touch caller state without its
  /// own synchronization when jobs() > 1.
  void forEachIndex(size_t Count, const std::function<void(size_t)> &Fn);

  /// Like forEachIndex but \p Fn also receives the claiming worker id
  /// (0 = the caller thread; ids are dense in [0, min(jobs, Count))).
  /// Exception-safe: if a work item throws, no further indices are
  /// handed out, all workers are joined, and the *first* captured
  /// exception is rethrown on the caller thread — a throwing item never
  /// escapes a spawned std::thread into std::terminate.
  void forEachIndexWorker(
      size_t Count, const std::function<void(unsigned, size_t)> &Fn);

private:
  unsigned Jobs;
};

/// Options for runExperimentsParallel.
struct ParallelExperimentOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = serial inline.
  unsigned Jobs = 0;
  /// When set, each run gets a private Telemetry hub whose metrics and
  /// log are merged into this hub in config index order after the whole
  /// batch completes. The configs' own Tel pointers are ignored (they
  /// would race); leave this and PerJobHook null to run without
  /// instrumentation.
  Telemetry *SharedTel = nullptr;
  /// Non-empty: run each config through runExperimentMedian over these
  /// seeds (the paper's three-run protocol). Empty: single runExperiment.
  std::vector<uint64_t> MedianSeeds;
  /// Log-record cap applied to each per-run private hub (and therefore
  /// a bound on merged log growth per run). Defaults to metrics-only,
  /// the right setting for sweeps; artifact-exporting callers re-run
  /// the chosen config serially with a full hub instead.
  size_t JobLogCapacity = 0;
  /// Optional per-run hook invoked on the worker thread after run I
  /// completes, with that run's private hub (runs get private hubs
  /// whenever a hook is set). Without SharedTel the hub is destroyed on
  /// the same worker as soon as the hook returns, so the hook must copy
  /// out whatever it keeps. Runs concurrently across workers; touch
  /// only the given hub and the result.
  std::function<void(size_t, const ExperimentResult &, Telemetry &)>
      PerJobHook;
  /// When set, every per-run private hub gets the online anomaly
  /// detectors. Alert records bypass JobLogCapacity, so even a
  /// metrics-only sweep merges a complete alert stream into SharedTel —
  /// in config index order, hence deterministic.
  bool EnableDetectors = false;
  /// When set, every per-run private hub also gets the flight recorder,
  /// so a run that trips a trigger leaves black-box dumps retrievable
  /// from its hub in PerJobHook (the fleet driver persists them as
  /// worst-device black-box refs). Ring copies are cheap; dumps only
  /// materialize on triggers.
  bool EnableFlightRecorder = false;
  /// When set, the batch is traced: every work item records its worker
  /// id, queue-wait, run wall time, and phase breakdown into this trace
  /// (host time — see telemetry/SchedTrace.h), and the post-batch
  /// serialized merge is timed per item. With SharedTel also set, one
  /// Sched log record per item plus a batch summary record are appended
  /// to the shared hub after the merge. Opt-in precisely because the
  /// values are host wall-clock: leave null to keep every exported
  /// artifact byte-deterministic. Not owned.
  SchedTrace *Sched = nullptr;
  /// When set, a live progress line (completed/total, ETA, per-worker
  /// utilization) is rendered while the batch runs. Not owned.
  SchedProgress *Progress = nullptr;
  /// Display label for traced/progress items; defaults to
  /// "App|Governor" from the config when unset.
  std::function<std::string(size_t)> ItemLabel;
  /// Progress meter title ("sweep 3/4" beats bare numbers in a soak).
  std::string ProgressLabel = "sweep";
};

/// Runs every config and returns results in config order (never
/// completion order). Each config executes exactly as it would serially;
/// see the file comment for the isolation and merge-order guarantees.
/// Configs sharing one ExperimentConfig::WarmPool warm-start from it:
/// each (app, seed)'s page is parsed/indexed once (on whichever worker
/// gets there first) and every other run of it restores the snapshot.
/// Simulated results stay bit-identical to cold runs; only host-side
/// setup shrinks (visible in Sched items' setup_ns).
std::vector<ExperimentResult>
runExperimentsParallel(const std::vector<ExperimentConfig> &Configs,
                       const ParallelExperimentOptions &Opts = {});

} // namespace greenweb

#endif // GREENWEB_WORKLOADS_PARALLELRUNNER_H
