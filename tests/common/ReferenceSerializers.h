//===- tests/common/ReferenceSerializers.h - printf-based oracles -*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The printf-per-field telemetry serializers that the append-in-place
/// writers in src/ replaced, kept as reference oracles for the
/// differential tests. Each formats through formatString, so it is
/// correct by construction and slow; the production writers must match
/// it byte for byte. The record-line oracle walks each row's schema
/// (telemetry/TelemetryLog.h), the one table the production writer and
/// fromJsonl read too.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_TESTS_COMMON_REFERENCESERIALIZERS_H
#define GREENWEB_TESTS_COMMON_REFERENCESERIALIZERS_H

#include "browser/TraceExport.h"
#include "support/StringUtils.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace greenweb {
namespace reference {

/// JSON string escaping: '"', '\\', the short escapes and \u00XX for
/// the other bytes below 0x20.
inline std::string jsonEscape(std::string_view S) {
  std::string Out;
  for (char C : S) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\b': Out += "\\b"; break;
    case '\f': Out += "\\f"; break;
    case '\n': Out += "\\n"; break;
    case '\r': Out += "\\r"; break;
    case '\t': Out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", unsigned(C));
      else
        Out += C;
    }
  }
  return Out;
}

/// "%.6f" with trailing zeros trimmed to one fraction digit.
inline std::string fieldNumber(double X) {
  std::string S = formatString("%.6f", X);
  size_t Last = S.find_last_not_of('0');
  if (S[Last] == '.')
    ++Last;
  S.erase(Last + 1);
  return S;
}

inline double canonicalNumber(double X) {
  return std::strtod(fieldNumber(X).c_str(), nullptr);
}

/// One log line from the row's schema (the same table the production
/// writer reads), each member formatted through printf.
inline std::string recordJson(const TelemetryRecord &R) {
  std::string Out = formatString("{\"ts_us\":%.3f,\"kind\":\"%s\"",
                                 R.Ts.nanos() / 1e3,
                                 telemetryEventKindName(R.Kind));
  forEachField(R, [&Out](std::string_view Key, const auto &Value) {
    using T = std::decay_t<decltype(Value)>;
    Out += formatString(",\"%s\":", jsonEscape(Key).c_str());
    if constexpr (std::is_same_v<T, int64_t>)
      Out += formatString("%lld", static_cast<long long>(Value));
    else if constexpr (std::is_same_v<T, double>)
      Out += fieldNumber(Value);
    else
      Out += formatString("\"%s\"", jsonEscape(Value).c_str());
  });
  Out += "}";
  return Out;
}

inline std::string jsonl(const TelemetryLog &Log) {
  std::string Out;
  for (const TelemetryRecord &R : Log.records()) {
    Out += recordJson(R);
    Out += "\n";
  }
  return Out;
}

inline std::string blackBoxJson(const BlackBoxDump &D) {
  std::string Out = formatString(
      "{\"trigger\":\"%s\",\"detail\":\"%s\",\"ts_us\":%.3f,"
      "\"seq\":%llu,\"records\":[\n",
      jsonEscape(D.Trigger).c_str(), jsonEscape(D.Detail).c_str(),
      D.Ts.nanos() / 1e3, static_cast<unsigned long long>(D.Seq));
  for (size_t I = 0; I < D.Records.size(); ++I) {
    Out += recordJson(D.Records[I]);
    Out += I + 1 < D.Records.size() ? ",\n" : "\n";
  }
  Out += "]}";
  return Out;
}

namespace trace {

inline void appendCompleteEvent(std::string &Out, const std::string &Name,
                                const char *Track, TimePoint Begin,
                                Duration DurationUs, const std::string &Args) {
  if (Out.size() > 1)
    Out += ",\n";
  Out += formatString(
      "{\"name\":\"%s\",\"cat\":\"greenweb\",\"ph\":\"X\","
      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":\"%s\"%s%s}",
      jsonEscape(Name).c_str(), Begin.nanos() / 1e3,
      DurationUs.nanos() / 1e3, jsonEscape(Track).c_str(),
      Args.empty() ? "" : ",\"args\":",
      Args.c_str());
}

inline void appendCounterEvent(std::string &Out, const char *Name,
                               TimePoint Ts, const std::string &Args) {
  if (Out.size() > 1)
    Out += ",\n";
  Out += formatString("{\"name\":\"%s\",\"cat\":\"greenweb\",\"ph\":\"C\","
                      "\"ts\":%.3f,\"pid\":1,\"args\":%s}",
                      jsonEscape(Name).c_str(), Ts.nanos() / 1e3,
                      Args.c_str());
}

inline void appendInstantEvent(std::string &Out, const std::string &Name,
                               TimePoint Ts, const std::string &Args) {
  if (Out.size() > 1)
    Out += ",\n";
  Out += formatString(
      "{\"name\":\"%s\",\"cat\":\"greenweb\",\"ph\":\"i\",\"s\":\"t\","
      "\"ts\":%.3f,\"pid\":1,\"tid\":\"governor\",\"args\":%s}",
      jsonEscape(Name).c_str(), Ts.nanos() / 1e3, Args.c_str());
}

inline void appendFlowEvent(std::string &Out, const std::string &Name,
                            unsigned long long FlowId, const char *Phase,
                            double TsUs, const std::string &Track) {
  if (Out.size() > 1)
    Out += ",\n";
  Out += formatString(
      "{\"name\":\"%s\",\"cat\":\"greenweb\",\"ph\":\"%s\",\"id\":%llu,"
      "\"ts\":%.3f,\"pid\":1,\"tid\":\"%s\"%s}",
      jsonEscape(Name).c_str(), Phase, FlowId, TsUs,
      jsonEscape(Track).c_str(), Phase[0] == 'f' ? ",\"bp\":\"e\"" : "");
}

struct FlowHop {
  double TsUs = 0.0;
  std::string Track;
};

} // namespace trace

inline std::string chromeTrace(const std::vector<FrameRecord> &Frames,
                               const std::vector<ConfigInterval> &Cpu) {
  using namespace trace;
  std::string Out = "[";
  for (const FrameRecord &Frame : Frames) {
    std::string Roots;
    for (const MsgLatency &L : Frame.Latencies) {
      if (!Roots.empty())
        Roots += ", ";
      Roots += formatString("%s#%llu", L.Msg.RootEvent.c_str(),
                            static_cast<unsigned long long>(L.Msg.RootId));
    }
    std::string Args = formatString(
        "{\"roots\":\"%s\",\"worst_latency_ms\":%.3f,"
        "\"cycles\":%.0f}",
        jsonEscape(Roots).c_str(), Frame.maxLatency().millis(),
        Frame.CyclesCharged);
    appendCompleteEvent(
        Out, formatString("frame %llu",
                          static_cast<unsigned long long>(Frame.FrameId)),
        "frames", Frame.BeginTime, Frame.ReadyTime - Frame.BeginTime, Args);
    for (const MsgLatency &L : Frame.Latencies)
      appendCompleteEvent(
          Out,
          formatString("%s#%llu", L.Msg.RootEvent.c_str(),
                       static_cast<unsigned long long>(L.Msg.RootId)),
          "inputs", L.Msg.StartTs, L.Latency,
          formatString("{\"latency_ms\":%.3f}", L.Latency.millis()));
  }
  for (const ConfigInterval &Interval : Cpu)
    appendCompleteEvent(Out, Interval.Config.str(), "cpu", Interval.Begin,
                        Interval.End - Interval.Begin, "{}");
  Out += "]\n";
  return Out;
}

inline std::string chromeTrace(const std::vector<FrameRecord> &Frames,
                               const std::vector<ConfigInterval> &Cpu,
                               const Telemetry &Tel) {
  using namespace trace;
  std::string Out = chromeTrace(Frames, Cpu);
  Out.resize(Out.size() - 2);
  for (const TelemetryRecord &R : Tel.log().records()) {
    switch (R.Kind) {
    case TelemetryEventKind::EnergySample: {
      const EnergySampleRecord &S = R.as<EnergySampleRecord>();
      appendCounterEvent(Out, "power_watts", R.Ts,
                         formatString("{\"watts\":%.6f}", S.Watts));
      appendCounterEvent(
          Out, "energy_joules", R.Ts,
          formatString("{\"joules\":%.6f}", S.CumulativeJoules));
      appendCounterEvent(
          Out, "sim_queue_depth", R.Ts,
          formatString("{\"events\":%.0f}", double(S.QueueDepth)));
      break;
    }
    case TelemetryEventKind::ConfigSwitch: {
      const ConfigSwitchRecord &S = R.as<ConfigSwitchRecord>();
      bool Big = S.ToCoreIsBig != 0;
      double FreqMHz = double(S.ToFreqMHz);
      appendCounterEvent(Out, "freq_mhz", R.Ts,
                         formatString("{\"A15\":%.0f,\"A7\":%.0f}",
                                      Big ? FreqMHz : 0.0,
                                      Big ? 0.0 : FreqMHz));
      break;
    }
    case TelemetryEventKind::GovernorDecision: {
      const GovernorDecisionRecord &D = R.as<GovernorDecisionRecord>();
      appendInstantEvent(
          Out, D.Governor + ": " + D.Reason, R.Ts,
          formatString("{\"config\":\"%s\",\"predicted_ms\":%.3f,"
                       "\"target_ms\":%.3f,\"offset\":%.0f}",
                       jsonEscape(D.Config).c_str(), D.PredictedMs,
                       D.TargetMs, double(D.FeedbackOffset)));
      break;
    }
    case TelemetryEventKind::FeedbackAction: {
      const FeedbackActionRecord &F = R.as<FeedbackActionRecord>();
      appendInstantEvent(
          Out, F.Governor + " feedback: " + F.Action, R.Ts,
          formatString("{\"key\":\"%s\",\"offset\":%.0f,"
                       "\"measured_ms\":%.3f,\"target_ms\":%.3f}",
                       jsonEscape(F.ModelKey).c_str(), double(F.NewOffset),
                       F.MeasuredMs, F.TargetMs));
      break;
    }
    case TelemetryEventKind::CounterSample: {
      const CounterSampleRecord &C = R.as<CounterSampleRecord>();
      appendCounterEvent(Out, C.Track.c_str(), R.Ts,
                         formatString("{\"value\":%.6f}", C.Value));
      break;
    }
    case TelemetryEventKind::Span: {
      const CompletedSpanRecord &S = R.as<CompletedSpanRecord>();
      appendCompleteEvent(
          Out, S.Name, S.Thread.c_str(),
          TimePoint::fromNanos(int64_t(std::llround(S.BeginUs * 1e3))),
          Duration::fromMillis(S.DurMs),
          formatString("{\"id\":%.0f,\"parent\":%.0f,\"root\":%.0f,"
                       "\"frame\":%.0f,\"open\":%.0f}",
                       double(S.Id), double(S.Parent), double(S.Root),
                       double(S.Frame), double(S.Open)));
      break;
    }
    case TelemetryEventKind::Fault: {
      const FaultEventRecord &F = R.as<FaultEventRecord>();
      if (F.Phase == "inject")
        appendInstantEvent(
            Out, "inject: " + F.Fault, R.Ts,
            formatString("{\"detail\":\"%s\",\"value\":%.3f}",
                         jsonEscape(F.Detail).c_str(), F.Value));
      break;
    }
    default:
      break;
    }
  }

  std::map<unsigned long long, std::vector<FlowHop>> HopsByRoot;
  std::map<unsigned long long, std::string> NameByRoot;
  for (const FrameRecord &Frame : Frames) {
    for (const MsgLatency &L : Frame.Latencies) {
      unsigned long long Root = static_cast<unsigned long long>(L.Msg.RootId);
      auto &Hops = HopsByRoot[Root];
      if (Hops.empty())
        Hops.push_back({L.Msg.StartTs.nanos() / 1e3, "inputs"});
      Hops.push_back({Frame.BeginTime.nanos() / 1e3, "frames"});
      if (NameByRoot[Root].empty())
        NameByRoot[Root] =
            formatString("flow:%s#%llu", L.Msg.RootEvent.c_str(), Root);
    }
  }
  for (const TelemetryRecord &R : Tel.log().records()) {
    const GovernorDecisionRecord *D = R.get<GovernorDecisionRecord>();
    if (!D || D->RootId <= 0)
      continue;
    auto It = HopsByRoot.find(static_cast<unsigned long long>(D->RootId));
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
      const char *Phase = I == 0 ? "s" : I + 1 == Hops.size() ? "f" : "t";
      appendFlowEvent(Out, Name, Root, Phase, Hops[I].TsUs, Hops[I].Track);
    }
  }
  Out += "]\n";
  return Out;
}

} // namespace reference
} // namespace greenweb

#endif // GREENWEB_TESTS_COMMON_REFERENCESERIALIZERS_H
