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
#include <cstring>
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

  /// What follows an event's name through the opening quote of its
  /// phase.
  static constexpr std::string_view CatAndPhase =
      "\",\"cat\":\"greenweb\",\"ph\":\"";

  /// Places the separator before one event.
  void start() {
    if (!First)
      W.lineBreak();
    First = false;
    W.rawValue();
  }

  /// Starts one event: the fields every event starts with, through its
  /// phase. Returns the buffer the caller appends the rest to.
  std::string &open(NameParts Name, char Phase) {
    start();
    Out += "{\"name\":\"";
    for (std::string_view Part : Name)
      appendJsonEscaped(Out, Part);
    Out += CatAndPhase;
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

/// `,"ts":` and \p Ts (see appendTs) in a buffer of its own, so events
/// that share a timestamp format it once.
struct TsText {
  char Buf[FixedBufferSize + 8];
  size_t Len;

  explicit TsText(TimePoint Ts) {
    std::memcpy(Buf, ",\"ts\":", 6);
    Len = size_t(formatFixed(Buf + 6, Ts.nanos() / 1e3, 3) - Buf);
  }
  std::string_view view() const { return {Buf, Len}; }
};

/// Opens one counter ("C") event through `"args":`.
std::string &openCounterEvent(Events &E, NameParts Name, const TsText &Ts) {
  std::string &Out = E.open(Name, 'C');
  Out += Ts.view();
  Out += ",\"pid\":1,\"args\":";
  return Out;
}

/// Appends one counter event whose args hold a single series, built
/// in one buffer: a sampled session writes three per energy sample.
void appendCounterEvent(Events &E, std::string_view Name, const TsText &Ts,
                        std::string_view Series, double Value,
                        int Precision) {
  E.start();
  LineBuffer Line(E.Out);
  Line.text("{\"name\":\"");
  Line.escaped(Name);
  Line.text(Events::CatAndPhase);
  Line.text("C\"");
  Line.text(Ts.view());
  Line.text(",\"pid\":1,\"args\":{\"");
  Line.text(Series);
  Line.text("\":");
  Line.fixed(Value, Precision);
  Line.text("}}");
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
    case TelemetryEventKind::EnergySample: {
      // Three counters, one timestamp: the bulk of a sampled session.
      const EnergySampleRecord &S = R.as<EnergySampleRecord>();
      TsText Ts(R.Ts);
      appendCounterEvent(E, "power_watts", Ts, "watts", S.Watts, 6);
      appendCounterEvent(E, "energy_joules", Ts, "joules",
                         S.CumulativeJoules, 6);
      appendCounterEvent(E, "sim_queue_depth", Ts, "events",
                         double(S.QueueDepth), 0);
      break;
    }
    case TelemetryEventKind::ConfigSwitch: {
      // One series per cluster; the idle cluster drops to 0 so cluster
      // migrations are visible as the two series trading places.
      const ConfigSwitchRecord &S = R.as<ConfigSwitchRecord>();
      double FreqMHz = double(S.ToFreqMHz);
      openCounterEvent(E, {"freq_mhz"}, TsText(R.Ts));
      appendNumberArg(Out, "{\"A15\":", S.ToCoreIsBig ? FreqMHz : 0.0, 0);
      appendNumberArg(Out, ",\"A7\":", S.ToCoreIsBig ? 0.0 : FreqMHz, 0);
      Out += "}}";
      break;
    }
    case TelemetryEventKind::GovernorDecision: {
      const GovernorDecisionRecord &D = R.as<GovernorDecisionRecord>();
      openInstantEvent(E, {D.Governor, ": ", D.Reason}, R.Ts);
      appendStringArg(Out, "{\"config\":\"", D.Config);
      appendNumberArg(Out, ",\"predicted_ms\":", D.PredictedMs, 3);
      appendNumberArg(Out, ",\"target_ms\":", D.TargetMs, 3);
      appendNumberArg(Out, ",\"offset\":", double(D.FeedbackOffset), 0);
      Out += "}}";
      break;
    }
    case TelemetryEventKind::FeedbackAction: {
      const FeedbackActionRecord &F = R.as<FeedbackActionRecord>();
      openInstantEvent(E, {F.Governor, " feedback: ", F.Action}, R.Ts);
      appendStringArg(Out, "{\"key\":\"", F.ModelKey);
      appendNumberArg(Out, ",\"offset\":", double(F.NewOffset), 0);
      appendNumberArg(Out, ",\"measured_ms\":", F.MeasuredMs, 3);
      appendNumberArg(Out, ",\"target_ms\":", F.TargetMs, 3);
      Out += "}}";
      break;
    }
    case TelemetryEventKind::CounterSample: {
      const CounterSampleRecord &C = R.as<CounterSampleRecord>();
      appendCounterEvent(E, C.Track, TsText(R.Ts), "value", C.Value, 6);
      break;
    }
    case TelemetryEventKind::Span: {
      // Causal task spans on their own simulated-thread tracks; the
      // args carry the parent links so the span DAG survives export.
      const CompletedSpanRecord &S = R.as<CompletedSpanRecord>();
      openCompleteEvent(
          E, {S.Name}, S.Thread,
          TimePoint::fromNanos(int64_t(std::llround(S.BeginUs * 1e3))),
          Duration::fromMillis(S.DurMs));
      appendNumberArg(Out, "{\"id\":", double(S.Id), 0);
      appendNumberArg(Out, ",\"parent\":", double(S.Parent), 0);
      appendNumberArg(Out, ",\"root\":", double(S.Root), 0);
      appendNumberArg(Out, ",\"frame\":", double(S.Frame), 0);
      appendNumberArg(Out, ",\"open\":", double(S.Open), 0);
      Out += "}}";
      break;
    }
    case TelemetryEventKind::Fault: {
      // Window begin/end already export as "fault:<kind>" spans; the
      // discrete injections show as instants on the same track.
      const FaultEventRecord &F = R.as<FaultEventRecord>();
      if (F.Phase == "inject") {
        openInstantEvent(E, {"inject: ", F.Fault}, R.Ts);
        appendStringArg(Out, "{\"detail\":\"", F.Detail);
        appendNumberArg(Out, ",\"value\":", F.Value, 3);
        Out += "}}";
      }
      break;
    }
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
    const GovernorDecisionRecord *D = R.get<GovernorDecisionRecord>();
    if (!D || D->RootId <= 0)
      continue;
    auto It = HopsByRoot.find(static_cast<uint64_t>(D->RootId));
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
