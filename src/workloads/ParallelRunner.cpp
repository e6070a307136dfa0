//===- workloads/ParallelRunner.cpp - Parallel scenario fan-out -----------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/ParallelRunner.h"

#include "profiling/Profiler.h"
#include "telemetry/SchedTrace.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

using namespace greenweb;

ParallelRunner::ParallelRunner(unsigned JobsIn) : Jobs(JobsIn) {
  if (Jobs == 0) {
    Jobs = std::thread::hardware_concurrency();
    if (Jobs == 0)
      Jobs = 1;
  }
}

void ParallelRunner::forEachIndex(size_t Count,
                                  const std::function<void(size_t)> &Fn) {
  assert(Fn && "forEachIndex with null function");
  forEachIndexWorker(Count, [&Fn](unsigned, size_t I) { Fn(I); });
}

void ParallelRunner::forEachIndexWorker(
    size_t Count, const std::function<void(unsigned, size_t)> &Fn) {
  assert(Fn && "forEachIndexWorker with null function");
  if (Count == 0)
    return;
  unsigned Workers = unsigned(std::min<size_t>(Jobs, Count));
  if (Workers <= 1) {
    // Inline on the caller thread: a throw propagates naturally.
    for (size_t I = 0; I < Count; ++I)
      Fn(0, I);
    return;
  }
  std::atomic<size_t> Next{0};
  std::atomic<bool> Failed{false};
  std::exception_ptr FirstError;
  std::mutex ErrorMu;
  auto Drain = [&](unsigned Worker) {
    GW_PROF_SCOPE("workloads.parallel_worker");
    for (size_t I = Next.fetch_add(1); I < Count; I = Next.fetch_add(1)) {
      // Once any item throws, stop handing out work so the batch winds
      // down quickly; items already claimed still finish.
      if (Failed.load(std::memory_order_relaxed))
        return;
      GW_PROF_SCOPE("workloads.parallel_item");
      try {
        Fn(Worker, I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ErrorMu);
        if (!FirstError)
          FirstError = std::current_exception();
        Failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::thread> Threads;
  Threads.reserve(Workers - 1);
  for (unsigned W = 1; W < Workers; ++W)
    Threads.emplace_back(Drain, W);
  Drain(0); // The caller thread is worker 0.
  for (std::thread &T : Threads)
    T.join();
  if (FirstError)
    std::rethrow_exception(FirstError);
}

std::vector<ExperimentResult>
greenweb::runExperimentsParallel(const std::vector<ExperimentConfig> &Configs,
                                 const ParallelExperimentOptions &Opts) {
  std::vector<ExperimentResult> Results(Configs.size());
  // Private hubs live until the ordered merge below, even for runs that
  // finish early. A hook without a shared hub harvests them itself.
  const bool Private = Opts.SharedTel || Opts.PerJobHook;
  std::vector<std::unique_ptr<Telemetry>> Hubs(Private ? Configs.size() : 0);

  ParallelRunner Runner(Opts.Jobs);
  const bool Timed = Opts.Sched || Opts.Progress;
  const unsigned Workers =
      unsigned(std::min<size_t>(Runner.jobs(), Configs.size()));
  // One host-time base for the whole batch; with a trace attached its
  // batch stamp *is* the base so item offsets line up with batchNs().
  const auto Base = std::chrono::steady_clock::now();
  auto HostNs = [&]() -> int64_t {
    if (Opts.Sched)
      return Opts.Sched->sinceBatchBeginNs();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - Base)
        .count();
  };
  auto Label = [&](size_t I) {
    if (Opts.ItemLabel)
      return Opts.ItemLabel(I);
    return Configs[I].AppName + "|" + Configs[I].GovernorName;
  };
  if (Opts.Sched)
    Opts.Sched->beginBatch(Workers, Configs.size());
  if (Opts.Progress)
    Opts.Progress->begin(Workers, Configs.size(), Opts.ProgressLabel);

  Runner.forEachIndexWorker(Configs.size(), [&](unsigned Worker, size_t I) {
    int64_t T0 = Timed ? HostNs() : 0;
    ExperimentConfig Config = Configs[I];
    if (Private) {
      Hubs[I] = std::make_unique<Telemetry>();
      Hubs[I]->setLogCapacity(Opts.JobLogCapacity);
      if (Opts.EnableDetectors)
        Hubs[I]->enableAnomalyDetectors();
      if (Opts.EnableFlightRecorder)
        Hubs[I]->enableFlightRecorder();
      Config.Tel = Hubs[I].get();
    } else {
      // A caller-supplied hub would be written from several workers at
      // once; isolation is the whole contract here.
      Config.Tel = nullptr;
    }
    int64_t T1 = Timed ? HostNs() : 0;
    Results[I] = Opts.MedianSeeds.empty()
                     ? runExperiment(Config)
                     : runExperimentMedian(Config, Opts.MedianSeeds);
    int64_t T2 = Timed ? HostNs() : 0;
    if (Opts.PerJobHook)
      Opts.PerJobHook(I, Results[I], *Hubs[I]);
    int64_t T3 = Timed ? HostNs() : 0;
    if (Opts.Sched) {
      SchedItem Item;
      Item.Item = I;
      Item.Worker = Worker;
      Item.Label = Label(I);
      Item.StartNs = T0;
      Item.RunNs = T3 - T0;
      // The run reports its own host-side setup (app generation, page
      // parse or snapshot restore, browser open); fold it into the
      // setup phase so warm-start savings are visible per item.
      int64_t RunSetup = int64_t(Results[I].SetupHostNs);
      RunSetup = std::min(RunSetup, T2 - T1);
      Item.SetupNs = (T1 - T0) + RunSetup;
      Item.SimNs = (T2 - T1) - RunSetup;
      Item.HookNs = T3 - T2;
      Item.HubRecords = Private ? int64_t(Hubs[I]->log().size()) : 0;
      Opts.Sched->record(std::move(Item));
    }
    if (Opts.Progress)
      Opts.Progress->itemDone(Worker, T3 - T0);
  });

  if (Opts.Sched)
    Opts.Sched->endBatch();
  if (Opts.Progress)
    Opts.Progress->finish();

  if (Opts.SharedTel) {
    // Deterministic aggregate: always config order, never completion
    // order. Counters commute, but gauges are last-wins and the merged
    // log should read like the serial sweep. mergeLogFrom keeps the
    // live append semantics — the shared hub's log capacity applies to
    // ordinary records while Alert records keep their bypass.
    int64_t MergeBegin = Opts.Sched ? HostNs() : 0;
    for (size_t I = 0; I < Hubs.size(); ++I) {
      int64_t ItemBegin = Opts.Sched ? HostNs() : 0;
      Opts.SharedTel->metrics().mergeFrom(Hubs[I]->metrics());
      Opts.SharedTel->mergeLogFrom(Hubs[I]->log());
      if (Opts.Sched)
        Opts.Sched->noteMerge(I, HostNs() - ItemBegin,
                              int64_t(Hubs[I]->log().size()));
    }
    if (Opts.Sched)
      Opts.Sched->setMergeWindowNs(HostNs() - MergeBegin);
  }
  if (Opts.Sched && Opts.SharedTel) {
    // Opt-in Sched records: one per item plus a batch summary, appended
    // after the ordered merge so the deterministic prefix of the log is
    // untouched. Host-time fields are inherent to scheduling — callers
    // who need byte-determinism leave Opts.Sched null.
    TelemetryLog &Log = Opts.SharedTel->log();
    TimePoint Now = Opts.SharedTel->now();
    for (const SchedItem &It : Opts.Sched->items())
      Log.append(TelemetryEventKind::Sched, Now,
                 {{"event", std::string("item")},
                  {"item", int64_t(It.Item)},
                  {"worker", int64_t(It.Worker)},
                  {"label", It.Label},
                  {"start_ns", It.StartNs},
                  {"run_ns", It.RunNs},
                  {"setup_ns", It.SetupNs},
                  {"sim_ns", It.SimNs},
                  {"hook_ns", It.HookNs},
                  {"merge_ns", It.MergeNs},
                  {"hub_records", It.HubRecords}});
    SchedReport Report = SchedReport::fromTrace(*Opts.Sched);
    Log.append(TelemetryEventKind::Sched, Now,
               {{"event", std::string("batch")},
                {"workers", int64_t(Report.Workers)},
                {"items", int64_t(Report.Items)},
                {"batch_ns", Report.BatchNs},
                {"merge_ns", Report.MergeNs},
                {"makespan_ns", Report.MakespanNs},
                {"serial_sum_ns", Report.SerialSumNs},
                {"speedup", Report.Speedup},
                {"efficiency", Report.Efficiency}});
  }
  return Results;
}
