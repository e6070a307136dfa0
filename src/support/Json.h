//===- support/Json.h - JSON document parser and writer ---------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON reader, the one ingest contract and the one JSON writer
/// of the repo.
///
/// parse() is a small recursive-descent parser building a document
/// tree. It accepts strict standard JSON only; numbers parse as double
/// (the artifacts never need integer precision beyond 2^53). Object
/// member order is preserved.
///
/// Reader is how every artifact loader (plans, fault plans, feature
/// tables, models, checkpoints and their states, sched artifacts, run
/// metadata) turns a parsed object into typed fields. Each read names
/// the key, a default for when it is absent, and the range the artifact
/// allows; each artifact states those limits once, as named constants
/// beside its loader. A key that is present with the wrong type, a
/// fraction where an integer is needed, or a value out of range is an
/// error: the reader keeps the first one as a diagnostic naming the key
/// and the value it got, returns defaults from then on, and the loader
/// hands the diagnostic to its caller once, at the end. No loader
/// casts a double it has not range-checked.
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
#include <limits>
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

  /// A string member, or \p Default when absent or not a string: for
  /// lenient scans such as log lines. Artifact loaders use Reader.
  std::string stringOr(std::string_view Key,
                       const std::string &Default) const;
};

/// The largest count a double holds exactly: past 2^53 doubles skip
/// integers, so no artifact count may exceed it.
inline constexpr uint64_t MaxCount = uint64_t(1) << 53;

/// Typed, range-checked reads of one JSON object's members; see the
/// file comment. Every read returns its default when the key is absent
/// or an error is already kept.
class Reader {
public:
  /// Reads \p Obj, named \p Context in diagnostics ("plan",
  /// "model node 3"). A non-object is the first error.
  Reader(const Value &Obj, std::string Context);
  Reader(const Value &&, std::string) = delete; ///< Would dangle.
  /// Parses \p Text and reads the document it holds; a syntax error is
  /// the first error ("<Context> is invalid JSON: ...").
  Reader(std::string_view Text, std::string Context);
  Reader(const Reader &) = delete;
  Reader &operator=(const Reader &) = delete;

  /// A reader of the nested object \p Obj that records its errors in
  /// this reader's diagnostic.
  Reader child(const Value &Obj, std::string Context);
  Reader child(const Value &&, std::string) = delete;

  /// An integral number in [0, \p Max] (\p Max <= MaxCount).
  uint64_t count(std::string_view Key, uint64_t Default,
                 uint64_t Max = MaxCount);
  /// An integral number in [\p Lo, \p Hi] (both within +-2^53).
  int64_t integer(std::string_view Key, int64_t Default, int64_t Lo,
                  int64_t Hi);
  /// A finite number in [\p Lo, \p Hi].
  double number(std::string_view Key, double Default,
                double Lo = -std::numeric_limits<double>::max(),
                double Hi = std::numeric_limits<double>::max());
  bool boolean(std::string_view Key, bool Default);
  std::string string(std::string_view Key, std::string Default = {});
  std::vector<std::string> strings(std::string_view Key,
                                   std::vector<std::string> Default = {});
  /// A string written by Writer::hexfloat (any text strtod consumes
  /// whole, so infinities round-trip too).
  double hexfloat(std::string_view Key, double Default);

  /// The same checks on an array element \p V, named \p Name ("seeds",
  /// "bucket count") in diagnostics.
  uint64_t count(const Value &V, std::string_view Name,
                 uint64_t Max = MaxCount);
  int64_t integer(const Value &V, std::string_view Name, int64_t Lo,
                  int64_t Hi);
  double number(const Value &V, std::string_view Name,
                double Lo = -std::numeric_limits<double>::max(),
                double Hi = std::numeric_limits<double>::max());

  /// A required array or object member; nullptr, with an error, when it
  /// is absent or of another type.
  const Value *array(std::string_view Key);
  const Value *object(std::string_view Key);

  /// Records \p Message unless an error is already kept; returns false.
  bool fail(std::string Message);
  bool ok() const { return Error->empty(); }
  /// ok(); when false and \p Out is given, stores the diagnostic there.
  bool finish(std::string *Out) const;

private:
  Reader(std::string *Error, const Value &Obj, std::string Context);

  /// The member \p Key when no error is kept; nullptr otherwise.
  const Value *member(std::string_view Key) const;
  /// member(Key) when it has kind \p K; nullptr when absent, and with
  /// an error when of another kind.
  const Value *typed(std::string_view Key, Value::Kind K,
                     const char *Expected);
  /// Records "<Context> field \"Name\" is <V>: <Expected>".
  void reject(std::string_view Name, const Value &V,
              const std::string &Expected);

  std::string OwnError;
  std::string *Error; ///< OwnError, or the parent's for a child.
  std::optional<Value> Parsed; ///< The document, when parsed here.
  const Value &Obj;
  std::string Context;
};

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
