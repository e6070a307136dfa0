//===- support/Json.h - JSON document parser and writer ---------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON reader and the one JSON writer of the repo.
///
/// parse() is a small recursive-descent parser building a document
/// tree, for the tools that ingest this repo's own artifacts: plans,
/// checkpoints, models, bench --json files, metrics snapshots and
/// telemetry JSONL lines. It accepts strict standard JSON only; numbers
/// parse as double (the artifacts never need 64-bit integer precision
/// beyond 2^53). Object member order is preserved.
///
/// Writer appends compact JSON to a caller-owned string. Every
/// artifact serializer writes through it, so separators, escaping and
/// number text are decided in one place. The two hot paths (telemetry
/// record lines and trace events) append whole values through
/// rawValue() with the same escaping and number primitives.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_SUPPORT_JSON_H
#define GREENWEB_SUPPORT_JSON_H

#include "support/StringUtils.h"

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace greenweb::json {

/// One JSON value. A tagged struct rather than a std::variant so the
/// recursive members stay readable.
struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool B = false;
  bool Integral = false; ///< A number written without '.' or exponent.
  double Num = 0.0;
  std::string Str;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Obj;

  bool isNull() const { return K == Kind::Null; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }

  /// Member lookup (first match); nullptr when absent or not an object.
  const Value *get(std::string_view Key) const;

  /// Typed convenience accessors on object members.
  double numberOr(std::string_view Key, double Default) const;
  std::string stringOr(std::string_view Key,
                       const std::string &Default) const;
  /// A member written by Writer::hexfloat.
  double hexfloatOr(std::string_view Key, double Default) const;
};

/// \p V as an exact count: a number that is integral, non-negative and
/// at most 2^53 (past which doubles skip integers). nullopt when \p V is
/// null or anything else, so state loaders never truncate 1.5 to 1 or
/// cast an out-of-range double.
std::optional<uint64_t> asCount(const Value *V);

/// Containers nested deeper than this are rejected, so hostile input
/// cannot exhaust the stack. The artifacts nest at most a few levels.
inline constexpr unsigned MaxDepth = 256;

/// Parses exactly one JSON value (plus surrounding whitespace). On
/// failure returns nullopt and, when \p Error is given, a short
/// message with the byte offset.
std::optional<Value> parse(std::string_view Text,
                           std::string *Error = nullptr);

/// The text of the first object that opens after the first \p Marker
/// in \p Text, byte-for-byte (brace matching that skips string
/// contents), so parity checks compare against exactly what a producer
/// embedded. Empty when absent or unbalanced.
std::string objectText(std::string_view Text, std::string_view Marker);

/// Append-in-place JSON writer. The caller opens and closes containers
/// in order and names each object member with key() before its value;
/// the writer places the separators. Numbers come in the fixed set of
/// formats the artifacts use, each named for the printf conversion
/// whose bytes it writes.
class Writer {
public:
  explicit Writer(std::string &Out) : Out(Out) {}

  Writer &beginObject() { return open('{'); }
  Writer &endObject() { return close('}'); }
  Writer &beginArray() { return open('['); }
  Writer &endArray() { return close(']'); }

  /// Writes the member name; the next call writes its value.
  Writer &key(std::string_view K) {
    element(",\"", 2);
    appendJsonEscaped(Out, K);
    Out.append("\":", 2);
    NeedComma = false;
    return *this;
  }

  /// An escaped string; the list form writes the concatenation.
  Writer &str(std::string_view S) { return str({S}); }
  Writer &str(std::initializer_list<std::string_view> Parts) {
    element(",\"", 2);
    for (std::string_view Part : Parts)
      appendJsonEscaped(Out, Part);
    Out += '"';
    return *this;
  }
  Writer &boolean(bool B) { return B ? raw("true") : raw("false"); }

  /// "%lld" / "%llu".
  Writer &integer(int64_t X);
  Writer &uinteger(uint64_t X);
  /// "%.*f" with \p Precision digits after the point.
  Writer &fixed(double X, int Precision);
  /// "%.17g": every double round-trips.
  Writer &g17(double X);
  /// The shortest of "%.15g", "%.16g" and "%.17g" that parses back to
  /// \p X: round-trips and reads well.
  Writer &shortest(double X);
  /// "%a" as a string: exact and parseable by strtod.
  Writer &hexfloat(double X);

  /// A complete JSON value serialized earlier.
  Writer &raw(std::string_view Json) {
    rawValue() += Json;
    return *this;
  }
  /// Starts an element that the caller appends to the returned buffer
  /// as one complete JSON value: raw() without the copy.
  std::string &rawValue() { return element(",", 1).Out; }

  /// Puts the next element, or the closing bracket, on a new line after
  /// any ',' it needs: the one-element-per-line layout of traces and
  /// black-box dumps.
  Writer &lineBreak() {
    PendingBreak = true;
    return *this;
  }

private:
  std::string &Out;
  bool NeedComma = false; ///< An element precedes in this container.
  bool PendingBreak = false;

  /// Appends the ','-led element text [Text, Text + Size), from the
  /// comma on only when one is due, after any pending line break.
  Writer &element(const char *Text, size_t Size) {
    if (PendingBreak) {
      Out += NeedComma ? ",\n" : "\n";
      NeedComma = PendingBreak = false;
    }
    size_t Skip = NeedComma ? 0 : 1;
    Out.append(Text + Skip, Size - Skip);
    NeedComma = true;
    return *this;
  }
  Writer &open(char Bracket) {
    char Text[2] = {',', Bracket};
    element(Text, 2);
    NeedComma = false;
    return *this;
  }
  Writer &close(char Bracket) {
    if (PendingBreak)
      Out += '\n';
    Out += Bracket;
    NeedComma = true;
    PendingBreak = false;
    return *this;
  }
};

} // namespace greenweb::json

#endif // GREENWEB_SUPPORT_JSON_H
