//===- support/Json.h - Minimal JSON document parser ------------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON parser building a document tree, for
/// the offline tools (gw-diff, gw-inspect) that ingest this repo's own
/// exported artifacts: bench --json files, metrics snapshots, and
/// telemetry JSONL lines. It accepts standard JSON; numbers parse as
/// double (the artifacts never need 64-bit integer precision beyond
/// 2^53). Object member order is preserved.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_SUPPORT_JSON_H
#define GREENWEB_SUPPORT_JSON_H

#include <cstdint>
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
};

/// \p V as an exact count: a number that is integral, non-negative and
/// at most 2^53 (past which doubles skip integers). nullopt when \p V is
/// null or anything else, so state loaders never truncate 1.5 to 1 or
/// cast an out-of-range double.
std::optional<uint64_t> asCount(const Value *V);

/// Parses exactly one JSON value (plus surrounding whitespace). On
/// failure returns nullopt and, when \p Error is given, a short
/// message with the byte offset.
std::optional<Value> parse(std::string_view Text,
                           std::string *Error = nullptr);

} // namespace greenweb::json

#endif // GREENWEB_SUPPORT_JSON_H
