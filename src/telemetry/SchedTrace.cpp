//===- telemetry/SchedTrace.cpp - Sweep scheduler observability -----------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/SchedTrace.h"

#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <unistd.h>

using namespace greenweb;

//===----------------------------------------------------------------------===//
// SchedTrace
//===----------------------------------------------------------------------===//

void SchedTrace::beginBatch(unsigned WorkersIn, size_t Items) {
  Workers = WorkersIn;
  BatchNs = 0;
  MergeWindowNs = 0;
  PerWorker.assign(Workers, {});
  Merges.clear();
  for (auto &Buf : PerWorker)
    Buf.reserve(Workers ? Items / Workers + 1 : 0);
  BatchBegin = std::chrono::steady_clock::now();
}

void SchedTrace::endBatch() { BatchNs = sinceBatchBeginNs(); }

int64_t SchedTrace::sinceBatchBeginNs() const {
  if (Workers == 0)
    return 0;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - BatchBegin)
      .count();
}

void SchedTrace::record(SchedItem Item) {
  if (Item.Worker < PerWorker.size())
    PerWorker[Item.Worker].push_back(std::move(Item));
}

void SchedTrace::noteMerge(uint64_t Item, int64_t MergeNs,
                           int64_t HubRecords) {
  Merges.push_back({Item, MergeNs, HubRecords});
}

std::vector<SchedItem> SchedTrace::items() const {
  std::vector<SchedItem> All;
  for (const auto &Buf : PerWorker)
    All.insert(All.end(), Buf.begin(), Buf.end());
  std::sort(All.begin(), All.end(),
            [](const SchedItem &A, const SchedItem &B) {
              return A.Item < B.Item;
            });
  for (const MergeNote &N : Merges)
    for (SchedItem &I : All)
      if (I.Item == N.Item) {
        I.MergeNs = N.MergeNs;
        I.HubRecords = N.HubRecords;
        break;
      }
  return All;
}

SchedTrace SchedTrace::fromParts(unsigned Workers, int64_t BatchNs,
                                 int64_t MergeWindowNs,
                                 std::vector<SchedItem> Items) {
  SchedTrace T;
  T.Workers = Workers;
  T.BatchNs = BatchNs;
  T.MergeWindowNs = MergeWindowNs;
  T.PerWorker.assign(std::max(1u, Workers), {});
  for (SchedItem &I : Items)
    if (I.Worker < T.PerWorker.size())
      T.PerWorker[I.Worker].push_back(std::move(I));
  return T;
}

//===----------------------------------------------------------------------===//
// SchedReport
//===----------------------------------------------------------------------===//

SchedReport SchedReport::fromTrace(const SchedTrace &Trace,
                                   size_t StragglerTopK) {
  SchedReport R;
  R.Workers = Trace.workers();
  R.BatchNs = Trace.batchNs();
  R.MergeNs = Trace.mergeWindowNs();
  R.MakespanNs = R.BatchNs + R.MergeNs;

  std::vector<SchedItem> Items = Trace.items();
  R.Items = Items.size();
  R.PerWorker.resize(R.Workers);
  for (unsigned W = 0; W < R.Workers; ++W)
    R.PerWorker[W].Id = W;

  // Per-worker busy/wait: replay each worker's timeline in claim
  // order; the gap before an item (first claim included) is handout
  // wait, everything inside RunNs is busy.
  std::vector<SchedItem> ByStart = Items;
  std::sort(ByStart.begin(), ByStart.end(),
            [](const SchedItem &A, const SchedItem &B) {
              if (A.StartNs != B.StartNs)
                return A.StartNs < B.StartNs;
              return A.Item < B.Item;
            });
  std::vector<int64_t> PrevEnd(R.Workers, 0);
  for (const SchedItem &I : ByStart) {
    if (I.Worker >= R.Workers)
      continue;
    Worker &W = R.PerWorker[I.Worker];
    ++W.Items;
    W.BusyNs += I.RunNs;
    W.WaitNs += std::max<int64_t>(0, I.StartNs - PrevEnd[I.Worker]);
    PrevEnd[I.Worker] = I.StartNs + I.RunNs;
  }

  for (const SchedItem &I : Items) {
    R.SerialSumNs += I.RunNs;
    R.SetupNs += I.SetupNs;
    R.SimNs += I.SimNs;
    R.HookNs += I.HookNs;
    R.HubRecords += I.HubRecords;
  }
  R.ItemOverheadNs = R.SerialSumNs - R.SetupNs - R.SimNs - R.HookNs;

  for (Worker &W : R.PerWorker) {
    R.MaxBusyNs = std::max(R.MaxBusyNs, W.BusyNs);
    W.Utilization =
        R.BatchNs > 0 ? double(W.BusyNs) / double(R.BatchNs) : 0.0;
  }

  if (R.MakespanNs > 0) {
    double Makespan = double(R.MakespanNs);
    R.Speedup = double(R.SerialSumNs) / Makespan;
    R.Efficiency =
        R.Workers ? double(R.SerialSumNs) / (double(R.Workers) * Makespan)
                  : 0.0;
    double MeanBusy =
        R.Workers ? double(R.SerialSumNs) / double(R.Workers) : 0.0;
    R.ComputeFraction = MeanBusy / Makespan;
    R.ImbalanceFraction = (double(R.MaxBusyNs) - MeanBusy) / Makespan;
    R.OverheadFraction =
        (double(R.BatchNs) - double(R.MaxBusyNs)) / Makespan;
    R.MergeFraction = double(R.MergeNs) / Makespan;
  }

  // Straggler top-k by run time (ties broken by item index so the
  // ranking is deterministic).
  std::vector<SchedItem> ByRun = Items;
  std::sort(ByRun.begin(), ByRun.end(),
            [](const SchedItem &A, const SchedItem &B) {
              if (A.RunNs != B.RunNs)
                return A.RunNs > B.RunNs;
              return A.Item < B.Item;
            });
  for (size_t I = 0; I < ByRun.size() && I < StragglerTopK; ++I)
    R.Stragglers.push_back(
        {ByRun[I].Item, ByRun[I].Worker, ByRun[I].Label, ByRun[I].RunNs});
  return R;
}

std::string SchedReport::toJson() const {
  std::string Out;
  json::Writer W(Out);
  W.beginObject().key("workers").uinteger(Workers);
  W.key("items").uinteger(Items).key("batch_ns").integer(BatchNs);
  W.key("merge_ns").integer(MergeNs).key("makespan_ns").integer(MakespanNs);
  W.key("serial_sum_ns").integer(SerialSumNs);
  W.key("max_busy_ns").integer(MaxBusyNs);
  W.key("speedup").fixed(Speedup, 6).key("efficiency").fixed(Efficiency, 6);
  W.key("attribution").beginObject();
  W.key("compute").fixed(ComputeFraction, 6);
  W.key("imbalance").fixed(ImbalanceFraction, 6);
  W.key("overhead").fixed(OverheadFraction, 6);
  W.key("merge_serialization").fixed(MergeFraction, 6).endObject();
  W.key("phases").beginObject().key("setup_ns").integer(SetupNs);
  W.key("sim_ns").integer(SimNs).key("hook_ns").integer(HookNs);
  W.key("item_overhead_ns").integer(ItemOverheadNs).endObject();
  W.key("hub_records").integer(HubRecords).key("per_worker").beginArray();
  for (const Worker &P : PerWorker) {
    W.beginObject().key("worker").uinteger(P.Id);
    W.key("items").uinteger(P.Items).key("busy_ns").integer(P.BusyNs);
    W.key("wait_ns").integer(P.WaitNs);
    W.key("utilization").fixed(P.Utilization, 6).endObject();
  }
  W.endArray().key("stragglers").beginArray();
  for (const Straggler &S : Stragglers) {
    W.beginObject().key("item").uinteger(S.Item);
    W.key("worker").uinteger(S.Worker);
    W.key("label").str(S.Label).key("run_ns").integer(S.RunNs).endObject();
  }
  W.endArray().endObject();
  return Out;
}

std::string SchedReport::format() const {
  std::string Out = formatString(
      "scheduler report: %llu items on %u workers\n"
      "  makespan %.3f ms = batch %.3f ms + merge %.3f ms "
      "(serial sum %.3f ms)\n"
      "  speedup %.2fx, parallel efficiency %.1f%%\n"
      "  attribution: compute %.1f%%, imbalance %.1f%%, overhead %.1f%%, "
      "merge serialization %.1f%%\n"
      "  phases: setup %.3f ms, simulate %.3f ms, hooks %.3f ms, "
      "per-item overhead %.3f ms (%lld hub records)\n",
      static_cast<unsigned long long>(Items), Workers,
      double(MakespanNs) / 1e6, double(BatchNs) / 1e6,
      double(MergeNs) / 1e6, double(SerialSumNs) / 1e6, Speedup,
      Efficiency * 100.0, ComputeFraction * 100.0,
      ImbalanceFraction * 100.0, OverheadFraction * 100.0,
      MergeFraction * 100.0, double(SetupNs) / 1e6, double(SimNs) / 1e6,
      double(HookNs) / 1e6, double(ItemOverheadNs) / 1e6,
      static_cast<long long>(HubRecords));
  for (const Worker &W : PerWorker)
    Out += formatString(
        "  worker %-2u %3llu items  busy %8.3f ms  wait %8.3f ms  "
        "utilization %5.1f%%\n",
        W.Id, static_cast<unsigned long long>(W.Items),
        double(W.BusyNs) / 1e6, double(W.WaitNs) / 1e6,
        W.Utilization * 100.0);
  if (!Stragglers.empty()) {
    Out += "  stragglers:\n";
    for (const Straggler &S : Stragglers)
      Out += formatString("    item %-3llu %-24s worker %-2u %8.3f ms\n",
                          static_cast<unsigned long long>(S.Item),
                          S.Label.c_str(), S.Worker,
                          double(S.RunNs) / 1e6);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Artifact round trip
//===----------------------------------------------------------------------===//

std::string greenweb::schedArtifactJson(const SchedTrace &Trace,
                                        const SchedReport &Report) {
  std::string Out = formatString(
      "{\n  \"kind\": \"sched_trace\",\n  \"workers\": %u,\n"
      "  \"batch_ns\": %lld,\n  \"merge_ns\": %lld,\n  \"items\": [\n",
      Trace.workers(), static_cast<long long>(Trace.batchNs()),
      static_cast<long long>(Trace.mergeWindowNs()));
  std::vector<SchedItem> Items = Trace.items();
  for (size_t I = 0; I < Items.size(); ++I) {
    const SchedItem &It = Items[I];
    Out += "    ";
    json::Writer W(Out);
    W.beginObject().key("item").uinteger(It.Item);
    W.key("worker").uinteger(It.Worker).key("label").str(It.Label);
    W.key("start_ns").integer(It.StartNs).key("run_ns").integer(It.RunNs);
    W.key("setup_ns").integer(It.SetupNs).key("sim_ns").integer(It.SimNs);
    W.key("hook_ns").integer(It.HookNs).key("merge_ns").integer(It.MergeNs);
    W.key("hub_records").integer(It.HubRecords).endObject();
    Out += I + 1 < Items.size() ? ",\n" : "\n";
  }
  Out += "  ],\n  \"report\": " + Report.toJson() + "\n}\n";
  return Out;
}

namespace {

/// Ingest limit of a sched artifact: more workers than any host runs.
constexpr uint64_t MaxWorkers = 4096;

} // namespace

bool greenweb::schedTraceFromArtifact(const std::string &Text,
                                      SchedTrace &Out, std::string *Error) {
  json::Reader R(Text, "sched artifact");
  if (R.string("kind") != "sched_trace")
    R.fail("not a sched artifact (expected kind \"sched_trace\")");
  // Every numeric field is an integer nanosecond count well under 2^53,
  // so the double round trip through the JSON parser is exact.
  std::vector<SchedItem> Parsed;
  if (const json::Value *Items = R.array("items"))
    for (const json::Value &V : Items->Arr) {
      json::Reader It = R.child(V, "sched item");
      SchedItem I;
      I.Item = It.count("item", 0);
      I.Worker = unsigned(It.count("worker", 0, MaxWorkers - 1));
      I.Label = It.string("label");
      I.StartNs = int64_t(It.count("start_ns", 0));
      I.RunNs = int64_t(It.count("run_ns", 0));
      I.SetupNs = int64_t(It.count("setup_ns", 0));
      I.SimNs = int64_t(It.count("sim_ns", 0));
      I.HookNs = int64_t(It.count("hook_ns", 0));
      I.MergeNs = int64_t(It.count("merge_ns", 0));
      I.HubRecords = int64_t(It.count("hub_records", 0));
      Parsed.push_back(std::move(I));
    }
  unsigned Workers = unsigned(R.count("workers", 0, MaxWorkers));
  int64_t BatchNs = int64_t(R.count("batch_ns", 0));
  int64_t MergeNs = int64_t(R.count("merge_ns", 0));
  if (R.ok())
    Out = SchedTrace::fromParts(Workers, BatchNs, MergeNs, std::move(Parsed));
  return R.finish(Error);
}

std::string
greenweb::schedReportSectionFromArtifact(const std::string &Text) {
  return json::objectText(Text, "\"report\":");
}

//===----------------------------------------------------------------------===//
// Perfetto export
//===----------------------------------------------------------------------===//

void greenweb::appendSchedTraceEvents(json::Writer &W,
                                      const SchedTrace &Trace) {
  std::vector<SchedItem> Items = Trace.items();
  if (Items.empty())
    return;
  // A dedicated pid keeps the host-time scheduler tracks visually
  // separate from the simulated-time tracks (gw-prof uses 9000).
  constexpr int SchedPid = 9100;
  W.lineBreak().beginObject().key("name").str("process_name");
  W.key("ph").str("M").key("pid").integer(SchedPid).key("tid").integer(0);
  W.key("args").beginObject().key("name").str("sweep scheduler (host time)");
  W.endObject().endObject();
  for (unsigned Id = 0; Id < Trace.workers(); ++Id) {
    W.lineBreak().beginObject().key("name").str("thread_name");
    W.key("ph").str("M").key("pid").integer(SchedPid).key("tid").uinteger(Id);
    W.key("args").beginObject().key("name");
    W.str({"worker ", std::to_string(Id), Id == 0 ? " (caller)" : ""});
    W.endObject().endObject();
  }
  // Opens one host-time slice on worker \p Tid through "args":{.
  auto Slice = [&W](std::string_view Name, unsigned Tid, int64_t StartNs,
                    int64_t DurNs) {
    W.lineBreak().beginObject().key("name").str(Name);
    W.key("cat").str("sched").key("ph").str("X");
    W.key("pid").integer(SchedPid).key("tid").uinteger(Tid);
    W.key("ts").fixed(double(StartNs) / 1e3, 3);
    W.key("dur").fixed(double(DurNs) / 1e3, 3).key("args").beginObject();
  };

  std::vector<SchedItem> ByStart = Items;
  std::sort(ByStart.begin(), ByStart.end(),
            [](const SchedItem &A, const SchedItem &B) {
              if (A.StartNs != B.StartNs)
                return A.StartNs < B.StartNs;
              return A.Item < B.Item;
            });
  std::vector<int64_t> PrevEnd(Trace.workers(), 0);
  for (const SchedItem &I : ByStart) {
    if (I.Worker < PrevEnd.size()) {
      int64_t Wait = I.StartNs - PrevEnd[I.Worker];
      if (Wait > 0) {
        Slice("(wait)", I.Worker, PrevEnd[I.Worker], Wait);
        W.key("queue_wait_ns").integer(Wait).endObject().endObject();
      }
      PrevEnd[I.Worker] = I.StartNs + I.RunNs;
    }
    Slice(I.Label.empty() ? "item " + std::to_string(I.Item) : I.Label,
          I.Worker, I.StartNs, I.RunNs);
    W.key("item").uinteger(I.Item).key("setup_ns").integer(I.SetupNs);
    W.key("sim_ns").integer(I.SimNs).key("hook_ns").integer(I.HookNs);
    W.key("merge_ns").integer(I.MergeNs);
    W.key("hub_records").integer(I.HubRecords).endObject().endObject();
  }
  // The serialized merge occupies the caller track after the batch.
  if (Trace.mergeWindowNs() > 0) {
    Slice("merge (serialized)", 0, Trace.batchNs(), Trace.mergeWindowNs());
    W.key("merge_ns").integer(Trace.mergeWindowNs()).endObject().endObject();
  }
}

//===----------------------------------------------------------------------===//
// SchedProgress
//===----------------------------------------------------------------------===//

SchedProgress::SchedProgress(std::FILE *OutIn) : Out(OutIn) {
  Tty = isatty(fileno(Out)) != 0;
}

void SchedProgress::begin(unsigned WorkersIn, size_t ItemsIn,
                          std::string LabelIn) {
  Workers = WorkersIn;
  Items = ItemsIn;
  Label = std::move(LabelIn);
  Done.store(0);
  BusyNs = std::make_unique<std::atomic<int64_t>[]>(Workers);
  for (unsigned W = 0; W < Workers; ++W)
    BusyNs[W].store(0);
  Begin = std::chrono::steady_clock::now();
  LastRender = Begin;
  Armed = true;
  Rendered = false;
}

void SchedProgress::itemDone(unsigned Worker, int64_t ItemBusyNs) {
  if (!Armed)
    return;
  if (Worker < Workers)
    BusyNs[Worker].fetch_add(ItemBusyNs, std::memory_order_relaxed);
  Done.fetch_add(1, std::memory_order_relaxed);
  maybeRender(/*Force=*/false);
}

void SchedProgress::finish() {
  if (!Armed)
    return;
  maybeRender(/*Force=*/true);
  if (Rendered && Tty)
    std::fputc('\n', Out);
  Armed = false;
}

std::string SchedProgress::renderLine() const {
  double Elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Begin)
                       .count();
  size_t D = Done.load(std::memory_order_relaxed);
  std::string Line = formatString("[%s] %zu/%zu items  %.1fs elapsed",
                                  Label.c_str(), D, Items, Elapsed);
  if (D > 0 && D < Items)
    Line += formatString("  eta %.1fs",
                         Elapsed * double(Items - D) / double(D));
  if (Workers > 0 && Elapsed > 0) {
    Line += "  util";
    // Cap the per-worker list so wide fleets keep a one-line status.
    unsigned Shown = std::min(Workers, 8u);
    for (unsigned W = 0; W < Shown; ++W)
      Line += formatString(
          " w%u %.0f%%", W,
          100.0 * double(BusyNs[W].load(std::memory_order_relaxed)) /
              (Elapsed * 1e9));
    if (Shown < Workers)
      Line += formatString(" (+%u more)", Workers - Shown);
  }
  return Line;
}

void SchedProgress::maybeRender(bool Force) {
  // Redraw-in-place on a TTY at ~10 Hz; plain lines elsewhere at a
  // cadence coarse enough to keep CI logs readable.
  const auto MinGap =
      Tty ? std::chrono::milliseconds(100) : std::chrono::seconds(2);
  std::unique_lock<std::mutex> Lock(RenderMu, std::try_to_lock);
  if (!Lock.owns_lock())
    return; // Another worker is rendering; this update can wait.
  auto Now = std::chrono::steady_clock::now();
  if (!Force && Rendered && Now - LastRender < MinGap)
    return;
  LastRender = Now;
  Rendered = true;
  std::string Line = renderLine();
  if (Tty) {
    // Pad over any longer previous render.
    std::fprintf(Out, "\r%-100s", Line.c_str());
  } else {
    std::fprintf(Out, "%s\n", Line.c_str());
  }
  std::fflush(Out);
}
