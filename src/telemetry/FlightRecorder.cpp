//===- telemetry/FlightRecorder.cpp - Always-on black box ------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/FlightRecorder.h"

#include "support/Json.h"

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
  size_t Start = N == Cfg.RingCapacity ? RingNext : 0;
  D.Records.reserve(N);
  for (size_t I = 0; I < N; ++I) {
    const Entry &E = Ring[(Start + I) % N];
    D.Records.push_back(Lanes[E.Lane].Slots[E.Slot]);
  }
  Dumps.push_back(std::move(D));
  LastDumpSeq = Seq;
}

void FlightRecorder::onRecord(const TelemetryRecord &R) {
  // The ring holds the last RingCapacity records, so each lane slot it
  // names is among its lane's last RingCapacity rows: still in place.
  size_t Cap = Cfg.RingCapacity;
  Lane &L = Lanes[R.Data.index()];
  Entry E{uint32_t(R.Data.index()), L.Next};
  if (L.Slots.size() < Cap) {
    if (L.Slots.empty())
      L.Slots.reserve(Cap);
    L.Slots.push_back(R);
  } else {
    L.Slots[L.Next] = R;
  }
  if (++L.Next == Cap)
    L.Next = 0;
  if (Ring.size() < Cap)
    Ring.push_back(E);
  else
    Ring[RingNext] = E;
  if (++RingNext == Cap)
    RingNext = 0;
  ++Seq;

  switch (R.Kind) {
  case TelemetryEventKind::QosViolation: {
    size_t InWindow =
        Violations.add(R.Ts.nanos(), int64_t(Cfg.BurstWindowMs * 1e6));
    if (InWindow >= Cfg.BurstCount) {
      trigger("qos_burst",
              formatString("%zu violations in %.0f ms", InWindow,
                           Cfg.BurstWindowMs),
              R);
      Violations.clear();
    }
    break;
  }
  case TelemetryEventKind::GovernorDecision: {
    const GovernorDecisionRecord &D = R.as<GovernorDecisionRecord>();
    if (D.Reason == "watchdog_fallback")
      trigger("watchdog_trip", D.Governor, R);
    break;
  }
  case TelemetryEventKind::Fault: {
    const FaultEventRecord &F = R.as<FaultEventRecord>();
    if (F.Phase == "begin")
      trigger("fault_window", F.Fault, R);
    break;
  }
  case TelemetryEventKind::Alert: {
    const AlertRecord &A = R.as<AlertRecord>();
    trigger("alert:" + A.Detector,
            formatString("value %.3f score %.3f", A.Value, A.Score), R);
    break;
  }
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
