//===- telemetry/FlightRecorder.cpp - Always-on black box ------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/FlightRecorder.h"

#include "support/Json.h"
#include "telemetry/AnomalyDetector.h"

using namespace greenweb;

FlightRecorder::FlightRecorder(const FlightRecorderConfig &C) : Cfg(C) {
  if (Cfg.RingCapacity == 0)
    Cfg.RingCapacity = 1;
  Ring.reserve(Cfg.RingCapacity);
}

void FlightRecorder::trigger(const std::string &Reason, std::string Detail,
                             const TelemetryRecord &R) {
  ++Triggers;
  // LastDumpSeq == 0 means no dump yet; the first trigger always fires.
  if (LastDumpSeq != 0 && Seq - LastDumpSeq < Cfg.CooldownRecords) {
    ++Suppressed;
    return;
  }
  if (Dumps.size() >= Cfg.MaxDumps) {
    ++Dropped;
    return;
  }
  BlackBoxDump D;
  D.Trigger = Reason;
  D.Detail = std::move(Detail);
  D.Ts = R.Ts;
  D.Seq = Seq;
  // Ring snapshot, oldest first. Before the first wrap the ring is
  // simply [0, Seq); afterwards slot Seq % capacity is the oldest.
  size_t N = Ring.size();
  size_t Start = Seq >= Cfg.RingCapacity ? size_t(Seq % Cfg.RingCapacity) : 0;
  D.Records.reserve(N);
  for (size_t I = 0; I < N; ++I)
    D.Records.push_back(Ring[(Start + I) % N]);
  Dumps.push_back(std::move(D));
  LastDumpSeq = Seq;
}

void FlightRecorder::onRecord(const TelemetryRecord &R) {
  if (Ring.size() < Cfg.RingCapacity)
    Ring.push_back(R);
  else
    Ring[size_t(Seq % Cfg.RingCapacity)] = R;
  ++Seq;

  switch (R.Kind) {
  case TelemetryEventKind::QosViolation: {
    int64_t Ts = R.Ts.nanos();
    int64_t WindowNs = int64_t(Cfg.BurstWindowMs * 1e6);
    while (!ViolationTsNs.empty() && ViolationTsNs.front() < Ts - WindowNs)
      ViolationTsNs.pop_front();
    ViolationTsNs.push_back(Ts);
    if (ViolationTsNs.size() >= Cfg.BurstCount) {
      trigger("qos_burst",
              formatString("%zu violations in %.0f ms",
                           ViolationTsNs.size(), Cfg.BurstWindowMs),
              R);
      ViolationTsNs.clear();
    }
    break;
  }
  case TelemetryEventKind::GovernorDecision:
    if (R.stringViewOr("reason", "") == "watchdog_fallback")
      trigger("watchdog_trip", R.stringOr("governor", ""), R);
    break;
  case TelemetryEventKind::Fault:
    if (R.stringViewOr("phase", "") == "begin")
      trigger("fault_window", R.stringOr("fault", ""), R);
    break;
  case TelemetryEventKind::Alert:
    trigger("alert:" + R.stringOr("detector", "?"),
            formatString("value %.3f score %.3f",
                         R.numberOr("value", 0.0), R.numberOr("score", 0.0)),
            R);
    break;
  default:
    break;
  }
}

void BlackBoxDump::appendJson(json::Writer &W) const {
  W.beginObject().key("trigger").str(Trigger).key("detail").str(Detail);
  W.key("ts_us").fixed(Ts.nanos() / 1e3, 3).key("seq").uinteger(Seq);
  W.key("records").beginArray().lineBreak();
  for (const TelemetryRecord &R : Records) {
    appendRecordJson(W.rawValue(), R);
    W.lineBreak();
  }
  W.endArray().endObject();
}

std::string FlightRecorder::dumpsJson() const {
  std::string Out;
  json::Writer W(Out);
  W.beginObject().key("kind").str("blackbox");
  W.key("triggers").uinteger(Triggers).key("suppressed").uinteger(Suppressed);
  W.key("dropped").uinteger(Dropped).key("records_observed").uinteger(Seq);
  W.key("dumps").beginArray().lineBreak();
  for (const BlackBoxDump &D : Dumps) {
    D.appendJson(W);
    W.lineBreak();
  }
  W.endArray().endObject();
  Out += '\n';
  return Out;
}

std::vector<TelemetryRecord>
greenweb::observeTelemetryRecord(const TelemetryRecord &R,
                                 FlightRecorder *Recorder,
                                 DetectorBank *Bank) {
  if (Recorder)
    Recorder->onRecord(R);
  std::vector<TelemetryRecord> Alerts;
  if (Bank && R.Kind != TelemetryEventKind::Alert) {
    Alerts = Bank->onRecord(R);
    if (Recorder)
      for (const TelemetryRecord &A : Alerts)
        Recorder->onRecord(A);
  }
  return Alerts;
}

std::vector<TelemetryRecord>
greenweb::replayObservability(const TelemetryLog &Log, DetectorBank &Bank,
                              FlightRecorder *Recorder) {
  std::vector<TelemetryRecord> Alerts;
  for (const TelemetryRecord &R : Log.records()) {
    if (R.Kind == TelemetryEventKind::Alert)
      continue; // Online output; this replay regenerates it.
    std::vector<TelemetryRecord> New =
        observeTelemetryRecord(R, Recorder, &Bank);
    for (TelemetryRecord &A : New)
      Alerts.push_back(std::move(A));
  }
  return Alerts;
}
