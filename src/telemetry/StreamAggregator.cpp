//===- telemetry/StreamAggregator.cpp - Fleet-level run folding ------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/StreamAggregator.h"

#include "support/Json.h"

#include <cstdlib>
#include <optional>

using namespace greenweb;

StreamAggregator::StreamAggregator() = default;

void StreamAggregator::fold(Group &G, const RunSample &S) {
  ++G.Runs;
  G.Frames += S.Frames;
  G.QosViolations += S.QosViolations;
  G.Alerts += S.Alerts;
  G.Joules += S.Joules;
  G.EnergyJ.observe(S.Joules);
  G.ViolationPct.observe(S.ViolationPct);
  for (double L : S.FrameLatenciesMs)
    G.FrameLatencyMs.observe(L);
  if (S.Frames > 0)
    G.EnergyPerFrameMj.observe(S.Joules * 1000.0 / double(S.Frames));
}

void StreamAggregator::merge(Group &G, const Group &O) {
  G.Runs += O.Runs;
  G.Frames += O.Frames;
  G.QosViolations += O.QosViolations;
  G.Alerts += O.Alerts;
  G.Joules += O.Joules;
  G.EnergyJ.mergeFrom(O.EnergyJ);
  G.ViolationPct.mergeFrom(O.ViolationPct);
  G.FrameLatencyMs.mergeFrom(O.FrameLatencyMs);
  G.EnergyPerFrameMj.mergeFrom(O.EnergyPerFrameMj);
}

void StreamAggregator::addRun(const RunSample &S) {
  fold(Total, S);
  fold(ByApp[S.App.empty() ? "?" : S.App], S);
  fold(ByGovernor[S.Governor.empty() ? "?" : S.Governor], S);
}

void StreamAggregator::mergeFrom(const StreamAggregator &O) {
  merge(Total, O.Total);
  for (const auto &[Name, G] : O.ByApp)
    merge(ByApp[Name], G);
  for (const auto &[Name, G] : O.ByGovernor)
    merge(ByGovernor[Name], G);
}

namespace {

void writeHistogram(json::Writer &W, const Histogram &H) {
  const RunningStat &S = H.summary();
  W.beginObject().key("count").uinteger(S.count());
  W.key("mean").fixed(S.count() ? S.mean() : 0.0, 4);
  W.key("min").fixed(S.count() ? S.min() : 0.0, 4);
  W.key("max").fixed(S.count() ? S.max() : 0.0, 4);
  W.key("p50").fixed(H.quantile(0.5), 4);
  W.key("p99").fixed(H.quantile(0.99), 4).endObject();
}

void writeGroup(json::Writer &W, const StreamAggregator::Group &G) {
  W.beginObject().key("runs").uinteger(G.Runs);
  W.key("frames").uinteger(G.Frames);
  W.key("qos_violations").uinteger(G.QosViolations);
  W.key("alerts").uinteger(G.Alerts);
  W.key("joules_total").fixed(G.Joules, 4);
  writeHistogram(W.key("energy_j"), G.EnergyJ);
  writeHistogram(W.key("violation_pct"), G.ViolationPct);
  G.FrameLatencyMs.writeSummary(W.key("frame_latency_ms"));
  G.EnergyPerFrameMj.writeSummary(W.key("energy_per_frame_mj"));
  W.endObject();
}

} // namespace

std::string StreamAggregator::toJson() const {
  std::string Out;
  json::Writer W(Out);
  W.beginObject().key("kind").str("fleet_summary");
  writeGroup(W.key("overall"), Total);
  writeGroupSections(W, [&W](const Group &G) { writeGroup(W, G); });
  W.endObject();
  Out += '\n';
  return Out;
}

//===----------------------------------------------------------------------===//
// Exact state round-trip (fleet checkpoints)
//===----------------------------------------------------------------------===//

namespace {

/// Hexfloats round-trip doubles exactly through strtod, unlike any
/// fixed decimal format: the whole point of the state serialization.
void writeStatState(json::Writer &W, const RunningStat &S) {
  RunningStatState St = S.state();
  W.beginObject().key("n").uinteger(St.N).key("sum").hexfloat(St.Sum);
  W.key("min").hexfloat(St.Min).key("max").hexfloat(St.Max);
  W.key("mean").hexfloat(St.WelfordMean).key("m2").hexfloat(St.M2);
  W.endObject();
}

bool statFromJson(const json::Value &V, RunningStat &Out,
                  std::string *Error) {
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  if (!V.isObject())
    return Fail("running-stat state is not an object");
  std::optional<uint64_t> N = json::asCount(V.get("n"));
  if (!N)
    return Fail("running-stat sample count is not an integer in [0, 2^53]");
  RunningStatState St;
  St.N = size_t(*N);
  St.Sum = V.hexfloatOr("sum", 0.0);
  St.Min = V.hexfloatOr("min", 0.0);
  St.Max = V.hexfloatOr("max", 0.0);
  St.WelfordMean = V.hexfloatOr("mean", 0.0);
  St.M2 = V.hexfloatOr("m2", 0.0);
  Out = RunningStat::fromState(St);
  return true;
}

/// A histogram's exact state: {"stat":<RunningStat>,"sketch":<sketch>}.
void writeHistogramState(json::Writer &W, const Histogram &H) {
  writeStatState(W.beginObject().key("stat"), H.summary());
  H.sketch().serialize(W.key("sketch"));
  W.endObject();
}

void writeGroupState(json::Writer &W, const StreamAggregator::Group &G) {
  W.beginObject().key("runs").uinteger(G.Runs);
  W.key("frames").uinteger(G.Frames).key("qos").uinteger(G.QosViolations);
  W.key("alerts").uinteger(G.Alerts).key("joules").hexfloat(G.Joules);
  writeHistogramState(W.key("energy_j"), G.EnergyJ);
  writeHistogramState(W.key("violation_pct"), G.ViolationPct);
  G.FrameLatencyMs.serialize(W.key("frame_latency_ms"));
  G.EnergyPerFrameMj.serialize(W.key("energy_per_frame_mj"));
  W.endObject();
}

bool groupFromJson(const json::Value &V, StreamAggregator::Group &Out,
                   std::string *Error) {
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  if (!V.isObject())
    return Fail("group state is not an object");
  std::optional<uint64_t> Runs = json::asCount(V.get("runs"));
  std::optional<uint64_t> Frames = json::asCount(V.get("frames"));
  std::optional<uint64_t> Qos = json::asCount(V.get("qos"));
  std::optional<uint64_t> Alerts = json::asCount(V.get("alerts"));
  if (!Runs || !Frames || !Qos || !Alerts)
    return Fail("group state count is not an integer in [0, 2^53]");
  Out.Runs = *Runs;
  Out.Frames = *Frames;
  Out.QosViolations = *Qos;
  Out.Alerts = *Alerts;
  Out.Joules = V.hexfloatOr("joules", 0.0);
  auto ReadHistogram = [&](const char *Key, Histogram &H) {
    const json::Value *Hist = V.get(Key);
    const json::Value *StatV = Hist ? Hist->get("stat") : nullptr;
    const json::Value *SketchV = Hist ? Hist->get("sketch") : nullptr;
    if (!StatV || !SketchV)
      return Fail("group state histogram is missing or incomplete");
    RunningStat Stat;
    QuantileSketch Sketch;
    if (!statFromJson(*StatV, Stat, Error) ||
        !QuantileSketch::deserialize(*SketchV, Sketch, Error))
      return false;
    H = Histogram(Stat, std::move(Sketch));
    return true;
  };
  auto ReadSketch = [&](const char *Key, QuantileSketch &Q) {
    const json::Value *SketchV = V.get(Key);
    if (!SketchV)
      return Fail("group state sketch is missing");
    return QuantileSketch::deserialize(*SketchV, Q, Error);
  };
  return ReadHistogram("energy_j", Out.EnergyJ) &&
         ReadHistogram("violation_pct", Out.ViolationPct) &&
         ReadSketch("frame_latency_ms", Out.FrameLatencyMs) &&
         ReadSketch("energy_per_frame_mj", Out.EnergyPerFrameMj);
}

} // namespace

void StreamAggregator::writeState(json::Writer &W) const {
  writeGroupState(W.beginObject().key("total"), Total);
  writeGroupSections(W, [&W](const Group &G) { writeGroupState(W, G); });
  W.endObject();
}

bool StreamAggregator::fromStateJson(const json::Value &V,
                                     StreamAggregator &Out,
                                     std::string *Error) {
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  if (!V.isObject())
    return Fail("aggregator state is not an object");
  StreamAggregator A;
  const json::Value *T = V.get("total");
  if (!T || !groupFromJson(*T, A.Total, Error))
    return false;
  auto Section = [&](const char *Key, std::map<std::string, Group> &Groups) {
    const json::Value *Sec = V.get(Key);
    if (!Sec || !Sec->isObject())
      return Fail("aggregator state section missing");
    for (const auto &[Name, G] : Sec->Obj)
      if (!groupFromJson(G, Groups[Name], Error))
        return false;
    return true;
  };
  if (!Section("by_app", A.ByApp) || !Section("by_governor", A.ByGovernor))
    return false;
  Out = std::move(A);
  return true;
}
