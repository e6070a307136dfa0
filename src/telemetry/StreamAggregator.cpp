//===- telemetry/StreamAggregator.cpp - Fleet-level run folding ------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/StreamAggregator.h"

#include "support/Json.h"
#include "support/StringUtils.h"

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

std::string histJson(const Histogram &H) {
  const RunningStat &S = H.summary();
  return formatString("{\"count\":%llu,\"mean\":%.4f,\"min\":%.4f,"
                      "\"max\":%.4f,\"p50\":%.4f,\"p99\":%.4f}",
                      static_cast<unsigned long long>(S.count()),
                      S.count() ? S.mean() : 0.0, S.count() ? S.min() : 0.0,
                      S.count() ? S.max() : 0.0, H.quantile(0.5),
                      H.quantile(0.99));
}

std::string sketchJson(const QuantileSketch &Q) {
  return formatString("{\"count\":%llu,\"p50\":%.4f,\"p90\":%.4f,"
                      "\"p99\":%.4f,\"max\":%.4f}",
                      static_cast<unsigned long long>(Q.count()),
                      Q.quantile(0.5), Q.quantile(0.9), Q.quantile(0.99),
                      Q.max());
}

} // namespace

std::string StreamAggregator::groupJson(const Group &G) {
  return formatString("{\"runs\":%llu,\"frames\":%llu,"
                      "\"qos_violations\":%llu,\"alerts\":%llu,"
                      "\"joules_total\":%.4f,\"energy_j\":",
                      static_cast<unsigned long long>(G.Runs),
                      static_cast<unsigned long long>(G.Frames),
                      static_cast<unsigned long long>(G.QosViolations),
                      static_cast<unsigned long long>(G.Alerts), G.Joules) +
         histJson(G.EnergyJ) +
         ",\"violation_pct\":" + histJson(G.ViolationPct) +
         ",\"frame_latency_ms\":" + sketchJson(G.FrameLatencyMs) +
         ",\"energy_per_frame_mj\":" + sketchJson(G.EnergyPerFrameMj) + "}";
}

std::string StreamAggregator::toJson() const {
  std::string Out = "{\"kind\":\"fleet_summary\",\"overall\":";
  Out += groupJson(Total);
  auto Section = [&Out](const char *Key,
                        const std::map<std::string, Group> &Groups) {
    Out += formatString(",\"%s\":{", Key);
    bool First = true;
    for (const auto &[Name, G] : Groups) {
      if (!First)
        Out += ",";
      First = false;
      Out += formatString("\"%s\":", jsonEscape(Name).c_str());
      Out += groupJson(G);
    }
    Out += "}";
  };
  Section("by_app", ByApp);
  Section("by_governor", ByGovernor);
  Out += "}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Exact state round-trip (fleet checkpoints)
//===----------------------------------------------------------------------===//

namespace {

/// Hexfloats round-trip doubles exactly through strtod, unlike any
/// fixed decimal format — the whole point of the state serialization.
std::string hexDouble(double X) { return formatString("\"%a\"", X); }

double parseHexDouble(const json::Value &V, std::string_view Key) {
  const json::Value *F = V.get(Key);
  if (!F || !F->isString())
    return 0.0;
  return std::strtod(F->Str.c_str(), nullptr);
}

std::string statStateJson(const RunningStat &S) {
  RunningStatState St = S.state();
  return formatString("{\"n\":%llu,\"sum\":", static_cast<unsigned long long>(
                                                  St.N)) +
         hexDouble(St.Sum) + ",\"min\":" + hexDouble(St.Min) +
         ",\"max\":" + hexDouble(St.Max) +
         ",\"mean\":" + hexDouble(St.WelfordMean) +
         ",\"m2\":" + hexDouble(St.M2) + "}";
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
  St.Sum = parseHexDouble(V, "sum");
  St.Min = parseHexDouble(V, "min");
  St.Max = parseHexDouble(V, "max");
  St.WelfordMean = parseHexDouble(V, "mean");
  St.M2 = parseHexDouble(V, "m2");
  Out = RunningStat::fromState(St);
  return true;
}

/// A histogram's exact state: {"stat":<RunningStat>,"sketch":<sketch>}.
std::string histogramStateJson(const Histogram &H) {
  return "{\"stat\":" + statStateJson(H.summary()) +
         ",\"sketch\":" + H.sketch().serialize() + "}";
}

std::string groupStateJson(const StreamAggregator::Group &G) {
  return formatString("{\"runs\":%llu,\"frames\":%llu,\"qos\":%llu,"
                      "\"alerts\":%llu,\"joules\":",
                      static_cast<unsigned long long>(G.Runs),
                      static_cast<unsigned long long>(G.Frames),
                      static_cast<unsigned long long>(G.QosViolations),
                      static_cast<unsigned long long>(G.Alerts)) +
         hexDouble(G.Joules) +
         ",\"energy_j\":" + histogramStateJson(G.EnergyJ) +
         ",\"violation_pct\":" + histogramStateJson(G.ViolationPct) +
         ",\"frame_latency_ms\":" + G.FrameLatencyMs.serialize() +
         ",\"energy_per_frame_mj\":" + G.EnergyPerFrameMj.serialize() + "}";
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
  Out.Joules = parseHexDouble(V, "joules");
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

std::string StreamAggregator::stateJson() const {
  std::string Out = "{\"total\":" + groupStateJson(Total);
  auto Section = [&Out](const char *Key,
                        const std::map<std::string, Group> &Groups) {
    Out += formatString(",\"%s\":{", Key);
    bool First = true;
    for (const auto &[Name, G] : Groups) {
      if (!First)
        Out += ",";
      First = false;
      Out += formatString("\"%s\":", jsonEscape(Name).c_str());
      Out += groupStateJson(G);
    }
    Out += "}";
  };
  Section("by_app", ByApp);
  Section("by_governor", ByGovernor);
  Out += "}";
  return Out;
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
