//===- telemetry/TelemetryLog.cpp - Structured event log -------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/TelemetryLog.h"

#include "support/StringUtils.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

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

/// Minimal parser for the flat one-object-per-line JSON that toJsonl
/// emits: string keys, string or number values, no nesting. Strings
/// understand the \" and \\ escapes jsonEscape produces.
class JsonlLineParser {
public:
  JsonlLineParser(const char *Begin, const char *End) : P(Begin), E(End) {}

  bool parse(TelemetryRecord &R, double &TsUs, std::string &KindName) {
    skipWs();
    if (!consume('{'))
      return false;
    bool First = true;
    while (true) {
      skipWs();
      if (consume('}'))
        break;
      if (!First && !consume(','))
        return false;
      First = false;
      skipWs();
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (!consume(':'))
        return false;
      skipWs();
      if (P != E && *P == '"') {
        std::string S;
        if (!parseString(S))
          return false;
        if (Key == "kind")
          KindName = std::move(S);
        else
          R.Fields.push_back({std::move(Key), std::move(S)});
      } else {
        double D = 0.0;
        int64_t I = 0;
        bool IsInt = false;
        if (!parseNumber(D, I, IsInt))
          return false;
        if (Key == "ts_us")
          TsUs = D;
        else if (IsInt)
          R.Fields.push_back({std::move(Key), I});
        else
          R.Fields.push_back({std::move(Key), D});
      }
    }
    skipWs();
    return P == E;
  }

private:
  void skipWs() {
    while (P != E && std::isspace(static_cast<unsigned char>(*P)))
      ++P;
  }

  bool consume(char C) {
    if (P == E || *P != C)
      return false;
    ++P;
    return true;
  }

  bool parseString(std::string &Out) {
    if (!consume('"'))
      return false;
    while (P != E && *P != '"') {
      char C = *P++;
      if (C == '\\') {
        if (P == E)
          return false;
        C = *P++;
      }
      Out += C;
    }
    return consume('"');
  }

  bool parseNumber(double &D, int64_t &I, bool &IsInt) {
    const char *Start = P;
    bool Dot = false, Exp = false;
    while (P != E &&
           (std::isdigit(static_cast<unsigned char>(*P)) || *P == '.' ||
            *P == 'e' || *P == 'E' || *P == '-' || *P == '+')) {
      if (*P == '.')
        Dot = true;
      if (*P == 'e' || *P == 'E')
        Exp = true;
      ++P;
    }
    if (P == Start)
      return false;
    std::string Tok(Start, P);
    // toJsonl prints every double with a decimal point and every
    // integer without one, so the literal's shape recovers the type.
    IsInt = !Dot && !Exp;
    if (IsInt) {
      I = std::strtoll(Tok.c_str(), nullptr, 10);
      D = double(I);
    } else {
      D = std::strtod(Tok.c_str(), nullptr);
    }
    return true;
  }

  const char *P;
  const char *E;
};

} // namespace

TelemetryLog TelemetryLog::fromJsonl(const std::string &Text,
                                     size_t *SkippedLines) {
  TelemetryLog Out;
  size_t Skipped = 0;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    const char *B = Text.data() + Pos;
    const char *E = Text.data() + Eol;
    Pos = Eol + 1;
    bool Blank = true;
    for (const char *Q = B; Q != E; ++Q)
      if (!std::isspace(static_cast<unsigned char>(*Q))) {
        Blank = false;
        break;
      }
    if (Blank)
      continue;
    TelemetryRecord R;
    double TsUs = 0.0;
    std::string KindName;
    JsonlLineParser Parser(B, E);
    TelemetryEventKind Kind;
    if (!Parser.parse(R, TsUs, KindName) ||
        !telemetryEventKindFromName(KindName, Kind)) {
      ++Skipped;
      continue;
    }
    R.Kind = Kind;
    R.Ts = TimePoint::fromNanos(int64_t(std::llround(TsUs * 1e3)));
    Out.Records.push_back(std::move(R));
  }
  if (SkippedLines)
    *SkippedLines = Skipped;
  return Out;
}
