//===- telemetry/TelemetryLog.cpp - Structured event log -------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/TelemetryLog.h"

#include "support/Json.h"

#include <charconv>
#include <cmath>
#include <iterator>
#include <utility>

using namespace greenweb;

/// Serialized kind names, in enumerator order.
static constexpr const char *KindNames[] = {
    "governor_decision", "feedback_action", "config_switch",
    "frame_stage",       "qos_violation",   "energy_sample",
    "counter_sample",    "span",            "fault",
    "alert",             "sched"};
static_assert(std::size(KindNames) == size_t(TelemetryEventKind::Sched) + 1);

const char *greenweb::telemetryEventKindName(TelemetryEventKind Kind) {
  return size_t(Kind) < std::size(KindNames) ? KindNames[size_t(Kind)]
                                             : "unknown";
}

bool greenweb::telemetryEventKindFromName(std::string_view Name,
                                          TelemetryEventKind &Out) {
  for (size_t K = 0; K < std::size(KindNames); ++K)
    if (Name == KindNames[K]) {
      Out = TelemetryEventKind(K);
      return true;
    }
  return false;
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
  LineBuffer Line(Out);
  Line.text("{\"ts_us\":");
  Line.fixed(R.Ts.nanos() / 1e3, 3);
  Line.text(",\"kind\":\"");
  Line.text(telemetryEventKindName(R.Kind));
  Line.text("\"");
  // Schema keys are plain identifiers, so they need no escaping.
  forEachField(R, [&Line](std::string_view Key, const auto &Value) {
    using T = std::decay_t<decltype(Value)>;
    Line.text(",\"");
    Line.text(Key);
    Line.text("\":");
    if constexpr (std::is_same_v<T, int64_t>) {
      Line.integer(Value);
    } else if constexpr (std::is_same_v<T, double>) {
      Line.trimmedFixed6(Value);
    } else {
      Line.text("\"");
      Line.escaped(Value);
      Line.text("\"");
    }
  });
  Line.text("}");
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

/// Reads one JSON member into the schema entry \p Def of \p Row: false
/// when the value's type is not the entry's.
template <class P>
bool readMember(const json::Value &V, const SchemaTag &Def, P &) {
  return V.isString() && V.Str == Def.Value;
}

template <class P>
bool readMember(const json::Value &V, const SchemaField<P, int64_t> &Def,
                P &Row) {
  if (!V.isNumber() || !V.Integral || !(std::fabs(V.Num) < 0x1p63))
    return false;
  Row.*Def.Member = int64_t(V.Num);
  return true;
}

template <class P>
bool readMember(const json::Value &V, const SchemaField<P, double> &Def,
                P &Row) {
  if (!V.isNumber())
    return false;
  Row.*Def.Member = V.Num;
  return true;
}

template <class P>
bool readMember(const json::Value &V,
                const SchemaField<P, std::string> &Def, P &Row) {
  if (!V.isString())
    return false;
  Row.*Def.Member = V.Str;
  return true;
}

/// Reads \p Obj as a \p P row: every schema key exactly once with its
/// type, and no key outside the schema besides "ts_us" and "kind".
template <class P> bool readRow(const json::Value &Obj, P &Row) {
  constexpr size_t N = std::tuple_size_v<decltype(P::schema())>;
  static_assert(N < 32, "one bit per schema entry");
  uint32_t Seen = 0;
  for (const auto &[Key, V] : Obj.Obj) {
    if (Key == "ts_us" || Key == "kind")
      continue;
    bool Ok = false;
    std::apply(
        [&](const auto &...Def) {
          uint32_t Bit = 1;
          auto Try = [&](const auto &D) {
            if (D.Key == Key && !(Seen & Bit)) {
              Seen |= Bit;
              Ok = readMember(V, D, Row);
            }
            Bit <<= 1;
          };
          (Try(Def), ...);
        },
        P::schema());
    if (!Ok)
      return false;
  }
  return Seen == (uint32_t(1) << N) - 1;
}

/// Reads \p Obj as the first row type of \p Kind, in variant order,
/// whose schema accepts it (the two sched rows differ by their tag).
template <size_t... I>
bool readAnyRow(const json::Value &Obj, TelemetryEventKind Kind,
                TimePoint Ts, TelemetryRecord &R,
                std::index_sequence<I...>) {
  auto Try = [&](auto Index) {
    using P = std::variant_alternative_t<decltype(Index)::value,
                                         TelemetryPayload>;
    P Row;
    if (P::Kind != Kind || !readRow(Obj, Row))
      return false;
    R = TelemetryRecord(Ts, std::move(Row));
    return true;
  };
  return (Try(std::integral_constant<size_t, I>{}) || ...);
}

/// A JSONL log line as a record: "ts_us" and "kind", then the members
/// of the kind's schema.
bool recordFromJson(const json::Value &V, TelemetryRecord &R) {
  if (!V.isObject())
    return false;
  const json::Value *TsUs = V.get("ts_us");
  const json::Value *KindName = V.get("kind");
  TelemetryEventKind Kind;
  if (!TsUs || !TsUs->isNumber() || !KindName || !KindName->isString() ||
      !telemetryEventKindFromName(KindName->Str, Kind))
    return false;
  TimePoint Ts =
      TimePoint::fromNanos(int64_t(std::llround(TsUs->Num * 1e3)));
  return readAnyRow(
      V, Kind, Ts, R,
      std::make_index_sequence<std::variant_size_v<TelemetryPayload>>{});
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
