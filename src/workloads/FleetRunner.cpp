//===- workloads/FleetRunner.cpp - Checkpointed population runs -----------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/FleetRunner.h"

#include "greenweb/Features.h"
#include "greenweb/Governors.h"
#include "hw/AcmpChip.h"
#include "profiling/Profiler.h"
#include "profiling/RunMeta.h"
#include "sim/Simulator.h"
#include "support/FileIo.h"
#include "support/StringUtils.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/SchedTrace.h"
#include "telemetry/Telemetry.h"
#include "workloads/ParallelRunner.h"
#include "workloads/WorkloadAssets.h"

#include <algorithm>
#include <exception>
#include <fstream>
#include <optional>

using namespace greenweb;

namespace {

std::string blackBoxRef(uint64_t Item) {
  return formatString("item-%06llu", static_cast<unsigned long long>(Item));
}

} // namespace

bool greenweb::runFleet(const FleetPlan &Plan, const FleetRunOptions &Opts,
                        FleetRunSummary &Out, std::string *Error) {
  const uint64_t Items = Plan.items();
  if (Items == 0)
    return failWith(Error, "fleet plan expands to zero items");
  const uint64_t BatchSize = std::max<uint64_t>(1, Opts.BatchSize);
  const uint64_t Batches = (Items + BatchSize - 1) / BatchSize;
  const bool Durable = !Opts.CheckpointPath.empty();

  FleetCheckpoint C;
  if (Opts.Resume) {
    if (!Durable)
      return failWith(Error, "--resume needs a checkpoint path");
    std::string Text;
    if (!readFile(Opts.CheckpointPath, Text, Error) ||
        !FleetCheckpoint::load(Text, C, Error))
      return false;
    if (C.PlanHash != Plan.hash())
      return failWith(
          Error,
          formatString("checkpoint was written by a different plan (hash "
                       "%016llx, this plan is %016llx)",
                       static_cast<unsigned long long>(C.PlanHash),
                       static_cast<unsigned long long>(Plan.hash())));
    if (C.ItemsTotal != Items)
      return failWith(Error,
                      "checkpoint item count does not match the plan");
    C.ReportJson.clear(); // Rebuilt when (if) the run completes.
  } else {
    C.PlanName = Plan.Name;
    C.PlanHash = Plan.hash();
    C.BaselineGovernor = Plan.BaselineGovernor;
    C.ItemsTotal = Items;
  }

  // The feature table stays a stream (it can outgrow memory); every
  // append is checked, so a full disk stops the run instead of leaving a
  // short table behind.
  std::ofstream Features;
  auto FeaturesFailed = [&Features, &Opts, Error] {
    if (Features)
      return false;
    failWith(Error, "cannot write features file " + Opts.FeaturesPath);
    return true;
  };
  if (!Opts.FeaturesPath.empty()) {
    if (Opts.Resume)
      return failWith(Error,
                      "feature export does not support --resume (skipped "
                      "batches would leave holes in the table)");
    Features.open(Opts.FeaturesPath, std::ios::binary | std::ios::trunc);
    if (FeaturesFailed())
      return false;
    // Ladder size for the header: the label space is this chip's
    // config ladder, identical for every simulated device.
    size_t LadderLevels;
    {
      Simulator S;
      AcmpChip Chip(S);
      LadderLevels = buildConfigLadder(Chip).size();
    }
    Features << prof::RunMeta::current("gw-fleet --features").toJsonlLine()
             << "\n"
             << featureHeaderLine(LadderLevels) << "\n";
  }

  // One parse for the whole plan: a model that is missing or malformed
  // stops the run here instead of silently degrading every predictive
  // item to its fallback.
  std::optional<DecisionTreeModel> Model;
  if (!Plan.ModelPath.empty() &&
      !DecisionTreeModel::loadFile(Plan.ModelPath, Model.emplace(), Error))
    return false;

  WarmCache Warm;
  SchedProgress Progress;
  uint64_t ExecutedBatches = 0;
  uint64_t SinceCheckpoint = 0;
  bool Stopped = false;
  Out = FleetRunSummary();

  for (uint64_t B = 0; B < Batches; ++B) {
    const uint64_t First = B * BatchSize;
    const uint64_t Count = std::min(BatchSize, Items - First);
    uint64_t Done = 0;
    for (uint64_t I = 0; I < Count; ++I)
      Done += C.done(First + I) ? 1 : 0;
    if (Done == Count) {
      Out.ItemsSkipped += Count;
      continue;
    }
    if (Done != 0)
      return failWith(
          Error, formatString("checkpoint is inconsistent: batch %llu is "
                              "partially done (%llu of %llu items) but "
                              "checkpoints only land on batch boundaries",
                              static_cast<unsigned long long>(B),
                              static_cast<unsigned long long>(Done),
                              static_cast<unsigned long long>(Count)));
    if (Opts.MaxBatches && ExecutedBatches >= Opts.MaxBatches) {
      Stopped = true;
      break;
    }

    std::vector<FleetPlanItem> BatchItems;
    std::vector<ExperimentConfig> Configs;
    BatchItems.reserve(size_t(Count));
    Configs.reserve(size_t(Count));
    for (uint64_t I = 0; I < Count; ++I) {
      BatchItems.push_back(Plan.item(First + I));
      Configs.push_back(Plan.config(BatchItems.back()));
      Configs.back().WarmPool = &Warm;
      Configs.back().Model = Model ? &*Model : nullptr;
    }

    // Per-item fold inputs, filled by the per-job hook on worker
    // threads (distinct slots per index, so no synchronization needed).
    std::vector<RunSample> Samples(Configs.size());
    std::vector<std::string> BlackBoxes(Configs.size());
    std::vector<std::vector<FeatureRow>> FeatureSlots;
    if (Features.is_open()) {
      FeatureSlots.resize(Configs.size());
      for (size_t I = 0; I < Configs.size(); ++I)
        Configs[I].FeatureRows = &FeatureSlots[I];
    }

    // The hook harvests each run's private hub; nothing is merged.
    ParallelExperimentOptions POpts;
    POpts.Jobs = Opts.Jobs;
    POpts.JobLogCapacity = 0;
    POpts.EnableDetectors = true;
    POpts.EnableFlightRecorder = true;
    POpts.ItemLabel = [&BatchItems](size_t I) {
      return BatchItems[I].label();
    };
    POpts.ProgressLabel =
        formatString("fleet %llu/%llu",
                     static_cast<unsigned long long>(B + 1),
                     static_cast<unsigned long long>(Batches));
    if (Opts.Progress)
      POpts.Progress = &Progress;
    // Only a durable run writes black boxes, and only for worst-k
    // devices, so a dump is serialized only when its device can still
    // make the cut. The state is read-only until the fold below; its
    // cut at batch start never drops a device the fold keeps.
    const FleetState &Folded = C.State;
    POpts.PerJobHook = [&Samples, &BlackBoxes, &Folded, Durable, First](
                           size_t I, const ExperimentResult &Result,
                           Telemetry &Hub) {
      Samples[I] = makeRunSample(Result, &Hub);
      if (!Durable)
        return;
      FleetWorstDevice D;
      D.Item = First + I;
      D.ViolationPct = Samples[I].ViolationPct;
      D.Joules = Samples[I].Joules;
      if (!Folded.couldEnterWorst(D))
        return;
      if (const FlightRecorder *FR = Hub.flightRecorder())
        if (!FR->dumps().empty())
          BlackBoxes[I] = FR->dumpsJson();
    };

    try {
      runExperimentsParallel(Configs, POpts);
    } catch (const std::exception &E) {
      return failWith(Error, formatString("fleet batch %llu failed: %s",
                                          static_cast<unsigned long long>(B),
                                          E.what()));
    }

    // Feature rows append in item order, the same order the fold uses.
    if (Features.is_open()) {
      for (size_t I = 0; I < FeatureSlots.size(); ++I) {
        const FleetPlanItem &Item = BatchItems[I];
        for (const FeatureRow &Row : FeatureSlots[I])
          Features << featureRowLine(Row, Item.App, Item.Governor,
                                     Item.Seed)
                   << "\n";
      }
      if (FeaturesFailed())
        return false;
    }

    // Fold in item order — the one order every invocation shares.
    FleetShardRollup Rollup;
    Rollup.Shard = B;
    Rollup.FirstItem = First;
    Rollup.Items = Count;
    Rollup.WorstViolationPct = -1.0;
    for (size_t I = 0; I < Samples.size(); ++I) {
      const RunSample &S = Samples[I];
      const FleetPlanItem &Item = BatchItems[I];
      C.State.Agg.addRun(S);
      C.State.noteWarmKey(Item.warmKey());
      Rollup.QosViolations += S.QosViolations;
      Rollup.Alerts += S.Alerts;
      Rollup.Joules += S.Joules;
      if (S.ViolationPct > Rollup.WorstViolationPct) {
        Rollup.WorstViolationPct = S.ViolationPct;
        Rollup.WorstItem = Item.Index;
        Rollup.WorstLabel = Item.label();
      }
      FleetWorstDevice D;
      D.Item = Item.Index;
      D.Label = Item.label();
      D.ViolationPct = S.ViolationPct;
      D.Joules = S.Joules;
      D.Alerts = S.Alerts;
      if (!BlackBoxes[I].empty())
        D.BlackBoxRef = blackBoxRef(Item.Index);
      C.State.noteDevice(std::move(D));
    }
    if (Rollup.WorstViolationPct < 0.0)
      Rollup.WorstViolationPct = 0.0;
    C.State.Shards.push_back(std::move(Rollup));

    // Persist black boxes for batch devices that made the worst-k cut.
    // Every durable write below is timed as one host-profiler scope.
    if (Durable) {
      GW_PROF_SCOPE("workloads.checkpoint");
      for (const FleetWorstDevice &D : C.State.Worst) {
        if (D.Item < First || D.Item >= First + Count ||
            D.BlackBoxRef.empty())
          continue;
        const std::string &Dump = BlackBoxes[size_t(D.Item - First)];
        if (Dump.empty())
          continue;
        if (!replaceFile(Opts.CheckpointPath + "." + D.BlackBoxRef +
                             ".blackbox.json",
                         Dump, Error))
          return false;
      }
    }

    for (uint64_t I = 0; I < Count; ++I)
      C.markDone(First + I);
    Out.ItemsRun += Count;
    ++ExecutedBatches;
    ++SinceCheckpoint;
    if (Durable &&
        SinceCheckpoint >= std::max(1u, Opts.CheckpointEveryBatches)) {
      GW_PROF_SCOPE("workloads.checkpoint");
      if (!replaceFile(Opts.CheckpointPath, C.serialize(), Error))
        return false;
      SinceCheckpoint = 0;
    }
  }

  if (Features.is_open()) {
    Features.close();
    if (FeaturesFailed())
      return false;
  }

  Out.Complete = !Stopped && C.doneCount() == Items;
  if (Out.Complete) {
    FleetReport Report = FleetReport::fromCheckpoint(C);
    C.ReportJson = Report.toJson();
    Out.Report = std::move(Report);
  } else {
    Out.Report = FleetReport::fromCheckpoint(C);
  }
  if (Durable && (SinceCheckpoint > 0 || Out.Complete)) {
    GW_PROF_SCOPE("workloads.checkpoint");
    if (!replaceFile(Opts.CheckpointPath, C.serialize(), Error))
      return false;
  }
  return true;
}
