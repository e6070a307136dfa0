//===- browser/TraceExport.cpp - chrome://tracing export --------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "browser/TraceExport.h"

#include "profiling/Profiler.h"
#include "support/Json.h"
#include "telemetry/SchedTrace.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string_view>

using namespace greenweb;

namespace {

/// An event name as pieces that are escaped and written in order.
using NameParts = std::initializer_list<std::string_view>;

/// The simulated-time events. Each is formatted by fused appends
/// straight into the trace's one writer as a complete value: over the
/// ~60k events of a sampled session, one json::Writer call per member
/// costs about twice these appends. Every event after the first starts
/// a new line.
struct Events {
  json::Writer &W;
  std::string &Out; ///< What W writes to.
  bool First = true;

  /// Starts one event: the fields every event starts with, through its
  /// phase. Returns the buffer the caller appends the rest to.
  std::string &open(NameParts Name, char Phase) {
    if (!First)
      W.lineBreak();
    First = false;
    W.rawValue();
    Out += "{\"name\":\"";
    for (std::string_view Part : Name)
      appendJsonEscaped(Out, Part);
    Out += "\",\"cat\":\"greenweb\",\"ph\":\"";
    Out += Phase;
    Out += '"';
    return Out;
  }
};

/// Appends `,"ts":` and a virtual time in microseconds, 3 decimals.
void appendTs(std::string &Out, int64_t Nanos) {
  Out += ",\"ts\":";
  appendFixed(Out, Nanos / 1e3, 3);
}

/// Opens one complete ("X") event through `"args":`; the caller writes
/// the args object and the closing '}'.
std::string &openCompleteEvent(Events &E, NameParts Name,
                               std::string_view Track, TimePoint Begin,
                               Duration Dur) {
  std::string &Out = E.open(Name, 'X');
  appendTs(Out, Begin.nanos());
  Out += ",\"dur\":";
  appendFixed(Out, Dur.nanos() / 1e3, 3);
  Out += ",\"pid\":1,\"tid\":\"";
  appendJsonEscaped(Out, Track);
  Out += "\",\"args\":";
  return Out;
}

/// Opens one counter ("C") event through `"args":`.
std::string &openCounterEvent(Events &E, NameParts Name, TimePoint Ts) {
  std::string &Out = E.open(Name, 'C');
  appendTs(Out, Ts.nanos());
  Out += ",\"pid\":1,\"args\":";
  return Out;
}

/// Appends one counter event whose args hold a single series.
void appendCounterEvent(Events &E, std::string_view Name, TimePoint Ts,
                        const char *Series, double Value, int Precision) {
  std::string &Out = openCounterEvent(E, {Name}, Ts);
  Out += "{\"";
  Out += Series;
  Out += "\":";
  appendFixed(Out, Value, Precision);
  Out += "}}";
}

/// Opens one thread-scoped instant ("i") event on the governor track
/// through `"args":`.
std::string &openInstantEvent(Events &E, NameParts Name, TimePoint Ts) {
  std::string &Out = E.open(Name, 'i');
  Out += ",\"s\":\"t\"";
  appendTs(Out, Ts.nanos());
  Out += ",\"pid\":1,\"tid\":\"governor\",\"args\":";
  return Out;
}

/// Appends `"Key":X` with X as "%.*f"; \p Key carries its own leading
/// ',' or '{'.
void appendNumberArg(std::string &Out, const char *Key, double X,
                     int Precision) {
  Out += Key;
  appendFixed(Out, X, Precision);
}

/// Appends a string arg: \p Key (with its leading punctuation and the
/// opening quote) then the escaped value and the closing quote.
void appendStringArg(std::string &Out, const char *Key,
                     std::string_view Value) {
  Out += Key;
  appendJsonEscaped(Out, Value);
  Out += '"';
}

/// Emits one flow event ("s"/"t"/"f"); binds to the enclosing slice on
/// \p Track at \p TsUs.
void appendFlowEvent(Events &E, std::string_view Name, uint64_t FlowId,
                     char Phase, double TsUs, std::string_view Track) {
  std::string &Out = E.open({Name}, Phase);
  Out += ",\"id\":";
  appendUInt(Out, FlowId);
  Out += ",\"ts\":";
  appendFixed(Out, TsUs, 3);
  Out += ",\"pid\":1,\"tid\":\"";
  appendJsonEscaped(Out, Track);
  Out += Phase == 'f' ? "\",\"bp\":\"e\"}" : "\"}";
}

/// One hop of a causal flow: an anchor timestamp on a named track.
struct FlowHop {
  double TsUs = 0.0;
  const char *Track = "";
};

/// The frames, inputs and cpu tracks both exports share.
void appendFrameEvents(Events &E, const std::vector<FrameRecord> &Frames,
                       const std::vector<ConfigInterval> &Cpu) {
  for (const FrameRecord &Frame : Frames) {
    // The frame's pipeline span on the "frames" track.
    std::string &Out = openCompleteEvent(
        E, {"frame ", std::to_string(Frame.FrameId)}, "frames",
        Frame.BeginTime, Frame.ReadyTime - Frame.BeginTime);
    Out += "{\"roots\":\"";
    for (size_t I = 0; I < Frame.Latencies.size(); ++I) {
      const FrameMsg &Msg = Frame.Latencies[I].Msg;
      if (I)
        Out += ", ";
      appendJsonEscaped(Out, Msg.RootEvent);
      Out += '#';
      appendUInt(Out, Msg.RootId);
    }
    Out += '"';
    appendNumberArg(Out, ",\"worst_latency_ms\":",
                    Frame.maxLatency().millis(), 3);
    appendNumberArg(Out, ",\"cycles\":", Frame.CyclesCharged, 0);
    Out += "}}";

    // One input->display span per contributing message.
    for (const MsgLatency &L : Frame.Latencies) {
      openCompleteEvent(E,
                        {L.Msg.RootEvent, "#", std::to_string(L.Msg.RootId)},
                        "inputs", L.Msg.StartTs, L.Latency);
      appendNumberArg(Out, "{\"latency_ms\":", L.Latency.millis(), 3);
      Out += "}}";
    }
  }

  for (const ConfigInterval &Interval : Cpu)
    openCompleteEvent(E, {Interval.Config.str()}, "cpu", Interval.Begin,
                      Interval.End - Interval.Begin) += "{}}";
}

/// The counter and governor tracks from the hub's log, then the flow
/// arrows linking each input to the frames it produced and the
/// governor decisions made on its behalf (input -> decision -> frame).
void appendTelemetryEvents(Events &E, const std::vector<FrameRecord> &Frames,
                           const Telemetry &Tel) {
  std::string &Out = E.Out;
  const std::vector<TelemetryRecord> &Records = Tel.log().records();
  for (const TelemetryRecord &R : Records) {
    switch (R.Kind) {
    case TelemetryEventKind::EnergySample:
      appendCounterEvent(E, "power_watts", R.Ts, "watts",
                         R.numberOr("watts", 0.0), 6);
      appendCounterEvent(E, "energy_joules", R.Ts, "joules",
                         R.numberOr("joules", 0.0), 6);
      appendCounterEvent(E, "sim_queue_depth", R.Ts, "events",
                         R.numberOr("queue_depth", 0.0), 0);
      break;
    case TelemetryEventKind::ConfigSwitch: {
      // One series per cluster; the idle cluster drops to 0 so cluster
      // migrations are visible as the two series trading places.
      bool Big = R.numberOr("big", 0.0) != 0.0;
      double FreqMHz = R.numberOr("freq_mhz", 0.0);
      openCounterEvent(E, {"freq_mhz"}, R.Ts);
      appendNumberArg(Out, "{\"A15\":", Big ? FreqMHz : 0.0, 0);
      appendNumberArg(Out, ",\"A7\":", Big ? 0.0 : FreqMHz, 0);
      Out += "}}";
      break;
    }
    case TelemetryEventKind::GovernorDecision:
      openInstantEvent(E,
                       {R.stringViewOr("governor", "?"), ": ",
                        R.stringViewOr("reason", "?")},
                       R.Ts);
      appendStringArg(Out, "{\"config\":\"", R.stringViewOr("config", ""));
      appendNumberArg(Out, ",\"predicted_ms\":",
                      R.numberOr("predicted_ms", -1.0), 3);
      appendNumberArg(Out, ",\"target_ms\":", R.numberOr("target_ms", -1.0),
                      3);
      appendNumberArg(Out, ",\"offset\":", R.numberOr("offset", 0.0), 0);
      Out += "}}";
      break;
    case TelemetryEventKind::FeedbackAction:
      openInstantEvent(E,
                       {R.stringViewOr("governor", "?"), " feedback: ",
                        R.stringViewOr("action", "?")},
                       R.Ts);
      appendStringArg(Out, "{\"key\":\"", R.stringViewOr("key", ""));
      appendNumberArg(Out, ",\"offset\":", R.numberOr("offset", 0.0), 0);
      appendNumberArg(Out, ",\"measured_ms\":",
                      R.numberOr("measured_ms", -1.0), 3);
      appendNumberArg(Out, ",\"target_ms\":", R.numberOr("target_ms", -1.0),
                      3);
      Out += "}}";
      break;
    case TelemetryEventKind::CounterSample:
      appendCounterEvent(E, R.stringViewOr("track", "counter"), R.Ts,
                         "value", R.numberOr("value", 0.0), 6);
      break;
    case TelemetryEventKind::Span: {
      // Causal task spans on their own simulated-thread tracks; the
      // args carry the parent links so the span DAG survives export.
      double BeginUs = R.numberOr("begin_us", 0.0);
      openCompleteEvent(
          E, {R.stringViewOr("name", "?")}, R.stringViewOr("thread", "?"),
          TimePoint::fromNanos(int64_t(std::llround(BeginUs * 1e3))),
          Duration::fromMillis(R.numberOr("dur_ms", 0.0)));
      appendNumberArg(Out, "{\"id\":", R.numberOr("id", 0.0), 0);
      appendNumberArg(Out, ",\"parent\":", R.numberOr("parent", 0.0), 0);
      appendNumberArg(Out, ",\"root\":", R.numberOr("root", 0.0), 0);
      appendNumberArg(Out, ",\"frame\":", R.numberOr("frame", 0.0), 0);
      appendNumberArg(Out, ",\"open\":", R.numberOr("open", 0.0), 0);
      Out += "}}";
      break;
    }
    case TelemetryEventKind::Fault:
      // Window begin/end already export as "fault:<kind>" spans; the
      // discrete injections show as instants on the same track.
      if (R.stringViewOr("phase", "") == "inject") {
        openInstantEvent(E, {"inject: ", R.stringViewOr("fault", "?")},
                         R.Ts);
        appendStringArg(Out, "{\"detail\":\"", R.stringViewOr("detail", ""));
        appendNumberArg(Out, ",\"value\":", R.numberOr("value", 0.0), 3);
        Out += "}}";
      }
      break;
    case TelemetryEventKind::FrameStage:
    case TelemetryEventKind::QosViolation:
    case TelemetryEventKind::Alert:
    case TelemetryEventKind::Sched:
      // Stages already show as pipeline spans; violations surface in
      // the metrics snapshot; alerts replay through gw-inspect; and
      // scheduler timelines get their own host-time tracks via
      // appendSchedTraceEvents. None needs a dedicated track here.
      break;
    }
  }

  // Flow arrows linking each input to the frames it produced and the
  // governor decisions made on its behalf (input -> decision -> frame).
  std::map<uint64_t, std::vector<FlowHop>> HopsByRoot;
  std::map<uint64_t, std::string> NameByRoot;
  for (const FrameRecord &Frame : Frames) {
    for (const MsgLatency &L : Frame.Latencies) {
      uint64_t Root = L.Msg.RootId;
      auto &Hops = HopsByRoot[Root];
      if (Hops.empty())
        Hops.push_back({L.Msg.StartTs.nanos() / 1e3, "inputs"});
      Hops.push_back({Frame.BeginTime.nanos() / 1e3, "frames"});
      std::string &Name = NameByRoot[Root];
      if (Name.empty()) {
        Name = "flow:";
        Name += L.Msg.RootEvent;
        Name += '#';
        Name += std::to_string(Root);
      }
    }
  }
  for (const TelemetryRecord &R : Records) {
    if (R.Kind != TelemetryEventKind::GovernorDecision)
      continue;
    double Root = R.numberOr("root", 0.0);
    if (Root <= 0.0)
      continue;
    auto It = HopsByRoot.find(static_cast<uint64_t>(Root));
    if (It != HopsByRoot.end())
      It->second.push_back({R.Ts.nanos() / 1e3, "governor"});
  }
  for (auto &[Root, Hops] : HopsByRoot) {
    if (Hops.size() < 2)
      continue;
    std::stable_sort(Hops.begin(), Hops.end(),
                     [](const FlowHop &A, const FlowHop &B) {
                       return A.TsUs < B.TsUs;
                     });
    const std::string &Name = NameByRoot[Root];
    for (size_t I = 0; I < Hops.size(); ++I) {
      char Phase = I == 0 ? 's' : I + 1 == Hops.size() ? 'f' : 't';
      appendFlowEvent(E, Name, Root, Phase, Hops[I].TsUs, Hops[I].Track);
    }
  }
}

std::string exportTrace(const std::vector<FrameRecord> &Frames,
                        const std::vector<ConfigInterval> &Cpu,
                        const Telemetry *Tel, const prof::Profile *Prof,
                        const SchedTrace *Sched) {
  std::string Out;
  // An energy sample, the bulk of a sampled session, exports as three
  // counter events of about 100 bytes each.
  if (Tel)
    Out.reserve((Tel->log().size() + Frames.size() + Cpu.size()) * 300);
  json::Writer W(Out);
  W.beginArray();
  Events E{W, Out};
  appendFrameEvents(E, Frames, Cpu);
  if (Tel)
    appendTelemetryEvents(E, Frames, *Tel);
  if (Prof)
    prof::appendHostTraceEvents(W, *Prof);
  if (Sched)
    appendSchedTraceEvents(W, *Sched);
  W.endArray();
  Out += '\n';
  return Out;
}

} // namespace

std::string
greenweb::exportChromeTrace(const std::vector<FrameRecord> &Frames,
                            const std::vector<ConfigInterval> &Cpu) {
  return exportTrace(Frames, Cpu, nullptr, nullptr, nullptr);
}

std::string
greenweb::exportChromeTrace(const std::vector<FrameRecord> &Frames,
                            const std::vector<ConfigInterval> &Cpu,
                            const Telemetry &Tel, const prof::Profile *Prof,
                            const SchedTrace *Sched) {
  return exportTrace(Frames, Cpu, &Tel, Prof, Sched);
}

ConfigTimelineRecorder::ConfigTimelineRecorder(AcmpChip &ChipIn)
    : Chip(ChipIn), Start(ChipIn.simulator().now()) {
  Current = Chip.config();
  CurrentSince = Start;
  LastListenerTime = Start;
  Chip.addPreChangeListener(
      [this] { reconcile(Chip.simulator().now()); });
}

void ConfigTimelineRecorder::reconcile(TimePoint Now) const {
  if (Chip.config() != Current) {
    // The change happened at the previous listener invocation (the
    // pre-change hook of the setConfig that installed it).
    Closed.push_back({Current, CurrentSince, LastListenerTime});
    Current = Chip.config();
    CurrentSince = LastListenerTime;
  }
  LastListenerTime = Now;
}

std::vector<ConfigInterval> ConfigTimelineRecorder::intervals() const {
  TimePoint Now = Chip.simulator().now();
  reconcile(Now);
  std::vector<ConfigInterval> Result = Closed;
  if (Now > CurrentSince)
    Result.push_back({Current, CurrentSince, Now});
  return Result;
}
