//===- telemetry/StreamAggregator.cpp - Fleet-level run folding ------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/StreamAggregator.h"

#include "support/Json.h"

#include <cstdlib>

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

RunningStat readStat(json::Reader R) {
  RunningStatState St;
  St.N = size_t(R.count("n", 0));
  St.Sum = R.hexfloat("sum", 0.0);
  St.Min = R.hexfloat("min", 0.0);
  St.Max = R.hexfloat("max", 0.0);
  St.WelfordMean = R.hexfloat("mean", 0.0);
  St.M2 = R.hexfloat("m2", 0.0);
  return RunningStat::fromState(St);
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

void readSketch(json::Reader &R, const char *Key, QuantileSketch &Q) {
  std::string Error;
  if (const json::Value *V = R.object(Key))
    if (!QuantileSketch::deserialize(*V, Q, &Error))
      R.fail(Error);
}

void readGroup(json::Reader G, StreamAggregator::Group &Out) {
  Out.Runs = G.count("runs", 0);
  Out.Frames = G.count("frames", 0);
  Out.QosViolations = G.count("qos", 0);
  Out.Alerts = G.count("alerts", 0);
  Out.Joules = G.hexfloat("joules", 0.0);
  for (auto [Key, H] : {std::pair{"energy_j", &Out.EnergyJ},
                        std::pair{"violation_pct", &Out.ViolationPct}})
    if (const json::Value *Hist = G.object(Key)) {
      json::Reader HR = G.child(*Hist, Key);
      RunningStat Stat;
      if (const json::Value *StatV = HR.object("stat"))
        Stat = readStat(HR.child(*StatV, "running stat"));
      QuantileSketch Sketch;
      readSketch(HR, "sketch", Sketch);
      *H = Histogram(Stat, std::move(Sketch));
    }
  readSketch(G, "frame_latency_ms", Out.FrameLatencyMs);
  readSketch(G, "energy_per_frame_mj", Out.EnergyPerFrameMj);
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
  json::Reader R(V, "aggregator state");
  StreamAggregator A;
  if (const json::Value *T = R.object("total"))
    readGroup(R.child(*T, "group"), A.Total);
  for (auto [Key, Groups] : {std::pair{"by_app", &A.ByApp},
                             std::pair{"by_governor", &A.ByGovernor}})
    if (const json::Value *Sec = R.object(Key))
      for (const auto &[Name, G] : Sec->Obj)
        readGroup(R.child(G, "group " + Name), (*Groups)[Name]);
  if (R.ok())
    Out = std::move(A);
  return R.finish(Error);
}
