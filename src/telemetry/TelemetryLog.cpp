//===- telemetry/TelemetryLog.cpp - Structured event log -------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/TelemetryLog.h"

#include "support/Json.h"

#include <charconv>
#include <cmath>

using namespace greenweb;

const char *greenweb::telemetryEventKindName(TelemetryEventKind Kind) {
  switch (Kind) {
  case TelemetryEventKind::GovernorDecision:
    return "governor_decision";
  case TelemetryEventKind::FeedbackAction:
    return "feedback_action";
  case TelemetryEventKind::ConfigSwitch:
    return "config_switch";
  case TelemetryEventKind::FrameStage:
    return "frame_stage";
  case TelemetryEventKind::QosViolation:
    return "qos_violation";
  case TelemetryEventKind::EnergySample:
    return "energy_sample";
  case TelemetryEventKind::CounterSample:
    return "counter_sample";
  case TelemetryEventKind::Span:
    return "span";
  case TelemetryEventKind::Fault:
    return "fault";
  case TelemetryEventKind::Alert:
    return "alert";
  case TelemetryEventKind::Sched:
    return "sched";
  }
  return "unknown";
}

bool greenweb::telemetryEventKindFromName(const std::string &Name,
                                          TelemetryEventKind &Out) {
  static const TelemetryEventKind Kinds[] = {
      TelemetryEventKind::GovernorDecision, TelemetryEventKind::FeedbackAction,
      TelemetryEventKind::ConfigSwitch,     TelemetryEventKind::FrameStage,
      TelemetryEventKind::QosViolation,     TelemetryEventKind::EnergySample,
      TelemetryEventKind::CounterSample,    TelemetryEventKind::Span,
      TelemetryEventKind::Fault,            TelemetryEventKind::Alert,
      TelemetryEventKind::Sched};
  for (TelemetryEventKind K : Kinds)
    if (Name == telemetryEventKindName(K)) {
      Out = K;
      return true;
    }
  return false;
}

const TelemetryField *TelemetryRecord::find(std::string_view Key) const {
  for (const TelemetryField &F : Fields)
    if (F.Key == Key)
      return &F;
  return nullptr;
}

double TelemetryRecord::numberOr(std::string_view Key,
                                 double Default) const {
  const TelemetryField *F = find(Key);
  if (!F)
    return Default;
  if (const int64_t *I = std::get_if<int64_t>(&F->Value))
    return double(*I);
  if (const double *D = std::get_if<double>(&F->Value))
    return *D;
  return Default;
}

std::string TelemetryRecord::stringOr(std::string_view Key,
                                      const std::string &Default) const {
  return std::string(stringViewOr(Key, Default));
}

std::string_view
TelemetryRecord::stringViewOr(std::string_view Key,
                              std::string_view Default) const {
  const TelemetryField *F = find(Key);
  if (!F)
    return Default;
  if (const std::string *S = std::get_if<std::string>(&F->Value))
    return *S;
  return Default;
}

void TelemetryLog::append(TelemetryEventKind Kind, TimePoint Ts,
                          std::vector<TelemetryField> Fields) {
  Records.push_back({Kind, Ts, std::move(Fields)});
}

std::vector<const TelemetryRecord *>
TelemetryLog::byKind(TelemetryEventKind Kind) const {
  std::vector<const TelemetryRecord *> Out;
  for (const TelemetryRecord &R : Records)
    if (R.Kind == Kind)
      Out.push_back(&R);
  return Out;
}

double greenweb::telemetryCanonicalNumber(double X) {
  // The logged text is N * 10^-6 exactly. A reader's parse rounds that
  // value once, as this division of two exact doubles does.
  if (std::optional<uint64_t> N = fixedDigits(X, 6))
    return std::copysign(double(*N) / 1e6, X);
  // Trimming the trailing zeros does not change the parsed value, so
  // the untrimmed "%.6f" text parses to what a log reader sees.
  char Buf[FixedBufferSize];
  char *End = formatFixed(Buf, X, 6);
  double Parsed = 0.0;
  std::from_chars(Buf, End, Parsed);
  return Parsed;
}

void greenweb::appendRecordJson(std::string &Out, const TelemetryRecord &R) {
  Out += "{\"ts_us\":";
  appendFixed(Out, R.Ts.nanos() / 1e3, 3);
  Out += ",\"kind\":\"";
  Out += telemetryEventKindName(R.Kind);
  Out += '"';
  for (const TelemetryField &F : R.Fields) {
    Out += ",\"";
    appendJsonEscaped(Out, F.Key);
    Out += "\":";
    if (const int64_t *I = std::get_if<int64_t>(&F.Value)) {
      appendInt(Out, *I);
    } else if (const double *D = std::get_if<double>(&F.Value)) {
      appendTrimmedFixed6(Out, *D);
    } else {
      Out += '"';
      appendJsonEscaped(Out, std::get<std::string>(F.Value));
      Out += '"';
    }
  }
  Out += '}';
}

std::string greenweb::telemetryRecordJson(const TelemetryRecord &R) {
  std::string Out;
  appendRecordJson(Out, R);
  return Out;
}

std::string TelemetryLog::toJsonl() const {
  std::string Out;
  appendJsonl(Out);
  return Out;
}

void TelemetryLog::appendJsonl(std::string &Out) const {
  // About 100 bytes a line on a full-hub session's record mix.
  Out.reserve(Out.size() + Records.size() * 112);
  for (const TelemetryRecord &R : Records) {
    appendRecordJson(Out, R);
    Out += '\n';
  }
}

namespace {

/// A JSONL log line as a record: "ts_us" and "kind" plus flat string or
/// number fields. A number written without a point or exponent reads
/// back as an integer field, as toJsonl writes them.
bool recordFromJson(const json::Value &V, TelemetryRecord &R) {
  if (!V.isObject())
    return false;
  double TsUs = 0.0;
  std::string KindName;
  for (const auto &[Key, F] : V.Obj) {
    if (Key == "ts_us" && F.isNumber())
      TsUs = F.Num;
    else if (Key == "kind" && F.isString())
      KindName = F.Str;
    else if (F.isString())
      R.Fields.push_back({Key, F.Str});
    else if (F.isNumber() && F.Integral && std::fabs(F.Num) < 0x1p63)
      R.Fields.push_back({Key, int64_t(F.Num)});
    else if (F.isNumber())
      R.Fields.push_back({Key, F.Num});
    else
      return false;
  }
  R.Ts = TimePoint::fromNanos(int64_t(std::llround(TsUs * 1e3)));
  return telemetryEventKindFromName(KindName, R.Kind);
}

} // namespace

TelemetryLog TelemetryLog::fromJsonl(const std::string &Text,
                                     size_t *SkippedLines,
                                     std::vector<size_t> *SkippedAt) {
  TelemetryLog Out;
  size_t Skipped = 0, LineNo = 0;
  for (std::string_view Line : split(Text, '\n')) {
    ++LineNo;
    if (trim(Line).empty())
      continue;
    std::optional<json::Value> Doc = json::parse(Line);
    TelemetryRecord R;
    if (Doc && recordFromJson(*Doc, R)) {
      Out.Records.push_back(std::move(R));
    } else {
      ++Skipped;
      if (SkippedAt)
        SkippedAt->push_back(LineNo);
    }
  }
  if (SkippedLines)
    *SkippedLines = Skipped;
  return Out;
}
