//===- telemetry/FleetReport.cpp - Fleet checkpoints and reports ----------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/FleetReport.h"

#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace greenweb;

uint64_t greenweb::fleetHash(std::string_view Text) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

//===----------------------------------------------------------------------===//
// FleetState
//===----------------------------------------------------------------------===//

namespace {

/// The worst-k order: higher violation percentage, then higher joules,
/// then lower item index.
bool worseThan(const FleetWorstDevice &A, const FleetWorstDevice &B) {
  if (A.ViolationPct != B.ViolationPct)
    return A.ViolationPct > B.ViolationPct;
  if (A.Joules != B.Joules)
    return A.Joules > B.Joules;
  return A.Item < B.Item;
}

} // namespace

bool FleetState::couldEnterWorst(const FleetWorstDevice &D) const {
  return Worst.size() < WorstKCapacity || worseThan(D, Worst.back());
}

void FleetState::noteDevice(FleetWorstDevice D) {
  auto It = std::lower_bound(Worst.begin(), Worst.end(), D, worseThan);
  Worst.insert(It, std::move(D));
  if (Worst.size() > WorstKCapacity)
    Worst.resize(WorstKCapacity);
}

void FleetState::noteWarmKey(const std::string &Key) {
  auto It = std::lower_bound(WarmKeys.begin(), WarmKeys.end(), Key);
  if (It == WarmKeys.end() || *It != Key)
    WarmKeys.insert(It, Key);
}

namespace {

std::string hex16(uint64_t X) {
  return formatString("%016llx", static_cast<unsigned long long>(X));
}

} // namespace

std::string FleetState::toJson() const {
  std::string Out;
  json::Writer W(Out);
  Agg.writeState(W.beginObject().key("agg"));
  W.key("shards").beginArray();
  for (const FleetShardRollup &R : Shards) {
    W.beginObject().key("shard").uinteger(R.Shard);
    W.key("first_item").uinteger(R.FirstItem).key("items").uinteger(R.Items);
    W.key("qos").uinteger(R.QosViolations).key("alerts").uinteger(R.Alerts);
    W.key("joules").hexfloat(R.Joules);
    W.key("worst_item").uinteger(R.WorstItem);
    W.key("worst_label").str(R.WorstLabel);
    W.key("worst_violation_pct").hexfloat(R.WorstViolationPct).endObject();
  }
  W.endArray().key("worst").beginArray();
  for (const FleetWorstDevice &D : Worst) {
    W.beginObject().key("item").uinteger(D.Item).key("label").str(D.Label);
    W.key("violation_pct").hexfloat(D.ViolationPct);
    W.key("joules").hexfloat(D.Joules).key("alerts").uinteger(D.Alerts);
    W.key("black_box").str(D.BlackBoxRef).endObject();
  }
  W.endArray().key("warm_keys").beginArray();
  for (const std::string &Key : WarmKeys)
    W.str(Key);
  W.endArray().endObject();
  return Out;
}

bool FleetState::fromJson(const json::Value &V, FleetState &Out,
                          std::string *Error) {
  json::Reader R(V, "fleet state");
  FleetState S;
  std::string AggError;
  if (const json::Value *Agg = R.object("agg"))
    if (!StreamAggregator::fromStateJson(*Agg, S.Agg, &AggError))
      R.fail(AggError);
  if (const json::Value *Shards = R.array("shards"))
    for (const json::Value &E : Shards->Arr) {
      json::Reader Sh = R.child(E, "shard rollup");
      FleetShardRollup Roll;
      Roll.Shard = Sh.count("shard", 0);
      Roll.FirstItem = Sh.count("first_item", 0);
      Roll.Items = Sh.count("items", 0);
      Roll.QosViolations = Sh.count("qos", 0);
      Roll.Alerts = Sh.count("alerts", 0);
      Roll.Joules = Sh.hexfloat("joules", 0.0);
      Roll.WorstItem = Sh.count("worst_item", 0);
      Roll.WorstLabel = Sh.string("worst_label");
      Roll.WorstViolationPct = Sh.hexfloat("worst_violation_pct", 0.0);
      S.Shards.push_back(std::move(Roll));
    }
  if (const json::Value *Worst = R.array("worst"))
    for (const json::Value &E : Worst->Arr) {
      json::Reader W = R.child(E, "worst-device entry");
      FleetWorstDevice D;
      D.Item = W.count("item", 0);
      D.Label = W.string("label");
      D.ViolationPct = W.hexfloat("violation_pct", 0.0);
      D.Joules = W.hexfloat("joules", 0.0);
      D.Alerts = W.count("alerts", 0);
      D.BlackBoxRef = W.string("black_box");
      S.Worst.push_back(std::move(D));
    }
  if (R.array("warm_keys"))
    S.WarmKeys = R.strings("warm_keys");
  if (R.ok())
    Out = std::move(S);
  return R.finish(Error);
}

//===----------------------------------------------------------------------===//
// FleetCheckpoint
//===----------------------------------------------------------------------===//

bool FleetCheckpoint::done(uint64_t Item) const {
  size_t Byte = size_t(Item / 8);
  return Byte < DoneBitmap.size() &&
         (DoneBitmap[Byte] >> (Item % 8)) & 1u;
}

void FleetCheckpoint::markDone(uint64_t Item) {
  size_t Byte = size_t(Item / 8);
  if (DoneBitmap.size() < (ItemsTotal + 7) / 8)
    DoneBitmap.resize((ItemsTotal + 7) / 8, 0);
  if (Byte < DoneBitmap.size())
    DoneBitmap[Byte] |= uint8_t(1u << (Item % 8));
}

uint64_t FleetCheckpoint::doneCount() const {
  uint64_t N = 0;
  for (uint64_t I = 0; I < ItemsTotal; ++I)
    N += done(I) ? 1 : 0;
  return N;
}

std::string FleetCheckpoint::serialize() const {
  std::string P;
  json::Writer W(P);
  W.beginObject().key("kind").str("fleet_checkpoint");
  W.key("schema").integer(Schema).key("plan_name").str(PlanName);
  W.key("plan_hash").str(hex16(PlanHash));
  W.key("baseline_governor").str(BaselineGovernor);
  W.key("items_total").uinteger(ItemsTotal);
  W.key("items_done").uinteger(doneCount());
  std::vector<uint8_t> Bits = DoneBitmap;
  Bits.resize((ItemsTotal + 7) / 8, 0);
  std::string Bitmap;
  for (uint8_t B : Bits)
    Bitmap += formatString("%02x", B);
  W.key("bitmap").str(Bitmap).key("state").raw(State.toJson());
  if (!ReportJson.empty())
    W.key("report").raw(ReportJson);
  // Integrity footer: everything before the footer is covered by the
  // length + FNV-1a checksum, so a torn or bit-flipped file is rejected
  // at load instead of silently resuming from garbage.
  uint64_t Length = P.size();
  uint64_t Sum = fleetHash(P);
  W.key("payload_length").uinteger(Length).key("checksum").str(hex16(Sum));
  W.endObject();
  P += '\n';
  return P;
}

bool FleetCheckpoint::load(const std::string &Text, FleetCheckpoint &Out,
                           std::string *Error) {
  json::Reader R(Text, "fleet checkpoint");
  size_t Footer = Text.rfind(",\"payload_length\":");
  if (Footer == std::string::npos)
    R.fail("not a fleet checkpoint (no integrity footer)");
  else if (R.string("kind") != "fleet_checkpoint")
    R.fail("not a fleet checkpoint (kind mismatch)");
  // Refuse other schemas before reading anything else, so a state in
  // another layout is never half-parsed.
  double Got = R.number("schema", 0);
  if (R.ok() && Got != Schema)
    R.fail(formatString("unsupported fleet checkpoint schema %g "
                        "(this build reads schema %d)",
                        Got, Schema));
  uint64_t Length = R.count("payload_length", 0);
  if (R.ok() && Length != Footer)
    R.fail(formatString("checkpoint corrupt: payload length %llu "
                        "does not match the %llu bytes on disk "
                        "(truncated or edited)",
                        static_cast<unsigned long long>(Length),
                        static_cast<unsigned long long>(Footer)));
  uint64_t Sum = std::strtoull(R.string("checksum", "0").c_str(), nullptr, 16);
  uint64_t Actual =
      R.ok() ? fleetHash(std::string_view(Text).substr(0, Footer)) : Sum;
  if (Sum != Actual)
    R.fail(formatString("checkpoint corrupt: checksum %016llx does "
                        "not match recomputed %016llx",
                        static_cast<unsigned long long>(Sum),
                        static_cast<unsigned long long>(Actual)));

  FleetCheckpoint C;
  C.PlanName = R.string("plan_name");
  C.PlanHash = std::strtoull(R.string("plan_hash", "0").c_str(), nullptr, 16);
  C.BaselineGovernor = R.string("baseline_governor");
  C.ItemsTotal = R.count("items_total", 0);
  std::string Bitmap = R.string("bitmap");
  if (R.ok() && Bitmap.size() != 2 * ((C.ItemsTotal + 7) / 8))
    R.fail("checkpoint corrupt: bitmap length mismatch");
  for (size_t I = 0; R.ok() && I + 1 < Bitmap.size(); I += 2) {
    unsigned B = 0;
    if (std::sscanf(Bitmap.c_str() + I, "%02x", &B) != 1)
      R.fail("checkpoint corrupt: bitmap is not hex");
    C.DoneBitmap.push_back(uint8_t(B));
  }
  std::string StateError;
  if (const json::Value *S = R.object("state"))
    if (!FleetState::fromJson(*S, C.State, &StateError))
      R.fail("checkpoint corrupt: " + StateError);
  if (R.ok()) {
    C.ReportJson = fleetReportSectionFromArtifact(Text);
    Out = std::move(C);
  }
  return R.finish(Error);
}

std::string
greenweb::fleetReportSectionFromArtifact(const std::string &Text) {
  return json::objectText(Text, ",\"report\":{");
}

//===----------------------------------------------------------------------===//
// FleetReport
//===----------------------------------------------------------------------===//

FleetReport FleetReport::fromCheckpoint(const FleetCheckpoint &C) {
  FleetReport R;
  R.PlanName = C.PlanName;
  R.BaselineGovernor = C.BaselineGovernor;
  R.ItemsTotal = C.ItemsTotal;
  R.ItemsDone = C.doneCount();
  R.State = C.State;
  return R;
}

namespace {

void writeGroupReport(json::Writer &W, const StreamAggregator::Group &G) {
  const Histogram &V = G.ViolationPct;
  W.beginObject().key("runs").uinteger(G.Runs);
  W.key("mean_joules").fixed(G.Runs ? G.Joules / double(G.Runs) : 0.0, 6);
  W.key("violation_pct_mean")
      .fixed(V.summary().count() ? V.summary().mean() : 0.0, 4);
  W.key("violation_pct_p50").fixed(V.quantile(0.5), 4);
  W.key("violation_pct_p99").fixed(V.quantile(0.99), 4);
  G.FrameLatencyMs.writeSummary(W.key("frame_latency_ms"));
  G.EnergyPerFrameMj.writeSummary(W.key("energy_per_frame_mj"));
  W.endObject();
}

} // namespace

std::string FleetReport::toJson() const {
  const StreamAggregator &A = State.Agg;
  const StreamAggregator::Group &T = A.total();
  std::string Out;
  json::Writer W(Out);
  W.beginObject().key("kind").str("fleet_report").key("plan").str(PlanName);
  W.key("baseline_governor").str(BaselineGovernor);
  W.key("items_total").uinteger(ItemsTotal);
  W.key("items_done").uinteger(ItemsDone);
  W.key("population").beginObject().key("runs").uinteger(T.Runs);
  W.key("frames").uinteger(T.Frames);
  W.key("qos_violations").uinteger(T.QosViolations);
  W.key("alerts").uinteger(T.Alerts);
  W.key("joules_total").fixed(T.Joules, 4);
  T.ViolationPct.sketch().writeSummary(W.key("violation_pct"));
  T.FrameLatencyMs.writeSummary(W.key("frame_latency_ms"));
  T.EnergyPerFrameMj.writeSummary(W.key("energy_per_frame_mj"));
  W.endObject();
  A.writeGroupSections(W, [&W](const StreamAggregator::Group &G) {
    writeGroupReport(W, G);
  });

  // Energy extrapolation: mean per-session joules vs the baseline
  // governor, scaled to one million users (1 session each). 3.6e6 J
  // per kWh.
  double BaselineMean = 0.0;
  auto BIt = A.byGovernor().find(BaselineGovernor);
  if (BIt != A.byGovernor().end() && BIt->second.Runs)
    BaselineMean = BIt->second.Joules / double(BIt->second.Runs);
  W.key("energy_extrapolation").beginObject();
  W.key("baseline_mean_joules").fixed(BaselineMean, 6);
  W.key("per_governor").beginObject();
  for (const auto &[Name, G] : A.byGovernor()) {
    if (Name == BaselineGovernor || G.Runs == 0)
      continue;
    double Mean = G.Joules / double(G.Runs);
    double SavedJ = BaselineMean - Mean;
    W.key(Name).beginObject().key("mean_joules").fixed(Mean, 6);
    W.key("saved_pct").fixed(
        BaselineMean > 0.0 ? 100.0 * SavedJ / BaselineMean : 0.0, 4);
    W.key("saved_j_per_run").fixed(SavedJ, 6);
    W.key("saved_kwh_per_million_users").fixed(SavedJ / 3.6, 4);
    W.endObject();
  }
  W.endObject().endObject();

  W.key("shards").beginArray();
  for (const FleetShardRollup &R : State.Shards) {
    W.beginObject().key("shard").uinteger(R.Shard);
    W.key("first_item").uinteger(R.FirstItem).key("items").uinteger(R.Items);
    W.key("qos_violations").uinteger(R.QosViolations);
    W.key("alerts").uinteger(R.Alerts).key("joules").fixed(R.Joules, 4);
    W.key("worst_item").uinteger(R.WorstItem);
    W.key("worst_label").str(R.WorstLabel);
    W.key("worst_violation_pct").fixed(R.WorstViolationPct, 4).endObject();
  }
  W.endArray().key("worst_devices").beginArray();
  for (const FleetWorstDevice &D : State.Worst) {
    W.beginObject().key("item").uinteger(D.Item).key("label").str(D.Label);
    W.key("violation_pct").fixed(D.ViolationPct, 4);
    W.key("joules").fixed(D.Joules, 4).key("alerts").uinteger(D.Alerts);
    W.key("black_box").str(D.BlackBoxRef).endObject();
  }
  uint64_t Requests = A.runs();
  uint64_t Builds = State.WarmKeys.size();
  W.endArray().key("warm_pool").beginObject();
  W.key("requests").uinteger(Requests).key("builds").uinteger(Builds);
  W.key("hit_rate").fixed(
      Requests ? 1.0 - double(Builds) / double(Requests) : 0.0, 4);
  W.endObject().endObject();
  return Out;
}

std::string FleetReport::format() const {
  const StreamAggregator &A = State.Agg;
  const StreamAggregator::Group &T = A.total();
  std::string Out = formatString(
      "fleet report: %s — %llu/%llu items, %llu runs, %llu frames\n"
      "population: %.2f J total, %llu QoS violations, %llu alerts\n",
      PlanName.c_str(), static_cast<unsigned long long>(ItemsDone),
      static_cast<unsigned long long>(ItemsTotal),
      static_cast<unsigned long long>(T.Runs),
      static_cast<unsigned long long>(T.Frames), T.Joules,
      static_cast<unsigned long long>(T.QosViolations),
      static_cast<unsigned long long>(T.Alerts));
  Out += formatString("frame latency: p50 %.2f ms, p90 %.2f ms, "
                      "p99 %.2f ms (n=%llu)\n",
                      T.FrameLatencyMs.quantile(0.5),
                      T.FrameLatencyMs.quantile(0.9),
                      T.FrameLatencyMs.quantile(0.99),
                      static_cast<unsigned long long>(
                          T.FrameLatencyMs.count()));

  Out += formatString("violation %%: p50 %.2f%%, p90 %.2f%%, p99 %.2f%%, "
                      "max %.2f%% (n=%llu runs)\n",
                      T.ViolationPct.quantile(0.5),
                      T.ViolationPct.quantile(0.9),
                      T.ViolationPct.quantile(0.99),
                      T.ViolationPct.sketch().max(),
                      static_cast<unsigned long long>(
                          T.ViolationPct.sketch().count()));
  Out += formatString("\n  %-14s %6s %10s %10s %10s %10s\n", "governor",
                      "runs", "mean J", "viol p50", "viol p99",
                      "frame p99");
  for (const auto &[Name, G] : A.byGovernor())
    Out += formatString("  %-14s %6llu %10.4f %9.2f%% %9.2f%% %8.2fms\n",
                        Name.c_str(),
                        static_cast<unsigned long long>(G.Runs),
                        G.Runs ? G.Joules / double(G.Runs) : 0.0,
                        G.ViolationPct.quantile(0.5),
                        G.ViolationPct.quantile(0.99),
                        G.FrameLatencyMs.quantile(0.99));

  double BaselineMean = 0.0;
  auto BIt = A.byGovernor().find(BaselineGovernor);
  if (BIt != A.byGovernor().end() && BIt->second.Runs)
    BaselineMean = BIt->second.Joules / double(BIt->second.Runs);
  if (BaselineMean > 0.0) {
    Out += formatString("\nenergy vs %s (%.4f J/session):\n",
                        BaselineGovernor.c_str(), BaselineMean);
    for (const auto &[Name, G] : A.byGovernor()) {
      if (Name == BaselineGovernor || G.Runs == 0)
        continue;
      double Mean = G.Joules / double(G.Runs);
      double SavedJ = BaselineMean - Mean;
      Out += formatString("  %-14s %+7.2f%%  %+9.4f J/session  "
                          "%+10.2f kWh per 1M users\n",
                          Name.c_str(), 100.0 * SavedJ / BaselineMean,
                          SavedJ, SavedJ / 3.6);
    }
  }

  if (!State.Worst.empty()) {
    Out += "\nworst devices (violation %, black box when recorded):\n";
    for (const FleetWorstDevice &D : State.Worst)
      Out += formatString("  #%-6llu %-40s %6.2f%%  %8.4f J%s%s\n",
                          static_cast<unsigned long long>(D.Item),
                          D.Label.c_str(), D.ViolationPct, D.Joules,
                          D.BlackBoxRef.empty() ? "" : "  bb:",
                          D.BlackBoxRef.c_str());
  }

  uint64_t Requests = A.runs();
  uint64_t Builds = State.WarmKeys.size();
  Out += formatString("\n%zu shard(s); warm pool: %llu requests, "
                      "%llu builds, %.1f%% hit rate\n",
                      State.Shards.size(),
                      static_cast<unsigned long long>(Requests),
                      static_cast<unsigned long long>(Builds),
                      Requests
                          ? 100.0 * (1.0 - double(Builds) / double(Requests))
                          : 0.0);
  return Out;
}
