//===- perfbench/Workloads.h - The benchmark's workloads --------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads, each a closed loop driven from one process:
///
///  - paper_suite: the Sec. 7 reproducer, cold and serial: 12 apps x
///    {Perf, Interactive, GreenWeb-I, GreenWeb-U} x {micro, full} x
///    seeds {S, S+1, S+2} = 288 runExperiment calls per pass;
///  - fleet: one runFleet call per pass over a 675-item plan shaped like
///    examples/plans/fleet_smoke.json plus Predictive-I, at J jobs, with
///    a checkpoint every batch;
///  - instrumented: one Goo.ne.jp x GreenWeb-I full session at seed S
///    with a full Telemetry hub and artifact export, plus the same
///    session with no hub as the control.
///
/// A pass is the workload's unit of work (pass_ms); an operation is the
/// call its per-operation latencies (op_ms.*) time.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_PERFBENCH_WORKLOADS_H
#define GREENWEB_PERFBENCH_WORKLOADS_H

#include "Ledger.h"
#include "Metrics.h"

#include <memory>
#include <string>
#include <vector>

namespace greenweb::perfbench {

struct WorkloadOptions {
  uint64_t Seed = 1;
  /// ParallelRunner workers for fleet passes.
  unsigned Jobs = 1;
  /// Directory for checkpoints and exported artifacts.
  std::string ScratchDir;
};

/// One pass's timings.
struct PassTiming {
  double WallMs = 0.0;      ///< What pass_ms reports.
  std::vector<double> OpMs; ///< What op_ms.* report.
};

/// Inputs the traced-run extras need from the interleaved passes.
struct TraceContext {
  double PassMs = 0.0;  ///< pass_ms.
  double OpP50Ms = 0.0; ///< op_ms.p50.
  bool Smoke = false;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// What pass_ms and op_ms time on this workload (for the report).
  virtual const char *passMeaning() const = 0;
  virtual const char *opMeaning() const = 0;
  /// Plan and model construction plus a warm-up; repeated to measure
  /// setup_s, so it must be idempotent.
  virtual void setup() = 0;
  /// One timed pass. Operations are counted and digest-checked in
  /// \p Out; artifact checks wait for verify().
  virtual PassTiming pass(Outcome &Out) = 0;
  /// Untimed checks of the last pass's on-disk outputs.
  virtual void verify(Outcome &) {}
  /// The (app, seed) pairs the workload's pages come from.
  virtual std::vector<Page> pages() const = 0;
  /// Threads a pass keeps busy: the ledger divides wall x threads.
  virtual unsigned threads() const { return 1; }
  /// End-to-end figures beyond the common set (untraced run).
  virtual void addEndToEnd(double /*PassMs*/, MetricSet &) {}
  /// Counters and workload-specific per-layer metrics (traced run).
  virtual void addTraced(const TraceContext &Ctx, MetricSet &M,
                         Outcome &Out) = 0;

  /// While set (traced passes), pass() adds the host time of scope-free
  /// calls it times to the owning layer here.
  LayerSpans *Spans = nullptr;
  /// First-repetition digests of every operation.
  DigestBook Digests;
};

/// The workload names, in the order the benchmark lists them.
const std::vector<std::string> &workloadNames();

/// Builds the named workload; nullptr for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const WorkloadOptions &Opts);

} // namespace greenweb::perfbench

#endif // GREENWEB_PERFBENCH_WORKLOADS_H
