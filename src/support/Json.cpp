//===- support/Json.cpp - JSON document parser and writer -----------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/StringUtils.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace greenweb::json {

namespace {

/// Decodes the escape sequence after a backslash at \p P (which points
/// past the backslash) and appends the character to \p Out, advancing
/// \p P. False on an unknown or truncated escape.
bool decodeEscape(const char *&P, const char *End, std::string &Out) {
  if (P == End)
    return false;
  switch (*P++) {
  case '"': Out += '"'; return true;
  case '\\': Out += '\\'; return true;
  case '/': Out += '/'; return true;
  case 'b': Out += '\b'; return true;
  case 'f': Out += '\f'; return true;
  case 'n': Out += '\n'; return true;
  case 'r': Out += '\r'; return true;
  case 't': Out += '\t'; return true;
  case 'u': break;
  default: return false;
  }
  if (End - P < 4)
    return false;
  unsigned Code = 0;
  for (int I = 0; I < 4; ++I) {
    char H = *P++;
    Code <<= 4;
    if (H >= '0' && H <= '9')
      Code |= unsigned(H - '0');
    else if (H >= 'a' && H <= 'f')
      Code |= unsigned(H - 'a' + 10);
    else if (H >= 'A' && H <= 'F')
      Code |= unsigned(H - 'A' + 10);
    else
      return false;
  }
  // UTF-8 encode the BMP code point (surrogate pairs in this repo's
  // artifacts do not occur; a lone surrogate encodes as-is, which
  // round-trips harmlessly).
  if (Code < 0x80) {
    Out += char(Code);
  } else if (Code < 0x800) {
    Out += char(0xC0 | (Code >> 6));
    Out += char(0x80 | (Code & 0x3F));
  } else {
    Out += char(0xE0 | (Code >> 12));
    Out += char(0x80 | ((Code >> 6) & 0x3F));
    Out += char(0x80 | (Code & 0x3F));
  }
  return true;
}

class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  std::optional<Value> run(std::string *Error) {
    skipWs();
    Value V;
    if (!value(V)) {
      fail(Error);
      return std::nullopt;
    }
    skipWs();
    if (Pos != Text.size()) {
      Msg = "trailing characters";
      fail(Error);
      return std::nullopt;
    }
    return V;
  }

private:
  std::string_view Text;
  size_t Pos = 0;
  unsigned Depth = 0;
  std::string Msg = "malformed JSON";

  bool consume(char C) {
    if (Pos >= Text.size() || Text[Pos] != C)
      return false;
    ++Pos;
    return true;
  }

  bool element(Value &V) {
    V.Arr.emplace_back();
    return value(V.Arr.back());
  }

  bool member(Value &V) {
    std::string Key;
    if (Pos >= Text.size() || Text[Pos] != '"') {
      Msg = "expected object key";
      return false;
    }
    if (!string(Key))
      return false;
    skipWs();
    if (!consume(':')) {
      Msg = "expected ':'";
      return false;
    }
    skipWs();
    V.Obj.emplace_back(std::move(Key), Value());
    return value(V.Obj.back().second);
  }

  /// An object (\p Close '}') or array (']') from its opening bracket.
  bool container(Value &V, char Close) {
    if (++Depth > MaxDepth) {
      Msg = formatString("nesting deeper than %u levels", MaxDepth);
      return false;
    }
    ++Pos;
    skipWs();
    if (!consume(Close)) {
      do {
        skipWs();
        if (!(Close == ']' ? element(V) : member(V)))
          return false;
        skipWs();
      } while (consume(','));
      if (!consume(Close)) {
        Msg = std::string("expected ',' or '") + Close + "'";
        return false;
      }
    }
    --Depth;
    return true;
  }

  void fail(std::string *Error) const {
    if (Error)
      *Error = formatString("%s at offset %zu", Msg.c_str(), Pos);
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  bool string(std::string &Out) {
    if (Pos >= Text.size() || Text[Pos] != '"')
      return false;
    ++Pos;
    Out.clear();
    const char *End = Text.data() + Text.size();
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos++];
      if (static_cast<unsigned char>(C) < 0x20) {
        --Pos;
        Msg = "raw control character in string";
        return false;
      }
      if (C != '\\') {
        Out += C;
        continue;
      }
      const char *P = Text.data() + Pos;
      if (!decodeEscape(P, End, Out)) {
        Msg = "invalid escape in string";
        return false;
      }
      Pos = size_t(P - Text.data());
    }
    if (Pos >= Text.size()) {
      Msg = "unterminated string";
      return false;
    }
    ++Pos; // closing quote
    return true;
  }

  /// Consumes one or more digits; false when there are none.
  bool digits() {
    size_t Start = Pos;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    return Pos != Start;
  }

  bool number(Value &V) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    size_t IntStart = Pos;
    if (!digits() || (Text[IntStart] == '0' && Pos - IntStart > 1))
      return false;
    V.Integral = true;
    if (Pos < Text.size() && Text[Pos] == '.') {
      ++Pos;
      V.Integral = false;
      if (!digits())
        return false;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      V.Integral = false;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (!digits())
        return false;
    }
    V.Num = std::strtod(std::string(Text.substr(Start, Pos - Start)).c_str(),
                        nullptr);
    return true;
  }

  bool value(Value &V) {
    if (Pos >= Text.size())
      return false;
    switch (Text[Pos]) {
    case '{':
      V.K = Value::Kind::Object;
      return container(V, '}');
    case '[':
      V.K = Value::Kind::Array;
      return container(V, ']');
    case '"':
      V.K = Value::Kind::String;
      return string(V.Str);
    case 't':
      V.K = Value::Kind::Bool;
      V.B = true;
      return literal("true");
    case 'f':
      V.K = Value::Kind::Bool;
      V.B = false;
      return literal("false");
    case 'n':
      V.K = Value::Kind::Null;
      return literal("null");
    default:
      V.K = Value::Kind::Number;
      if (number(V))
        return true;
      Msg = "malformed number";
      return false;
    }
  }
};

} // namespace

const Value *Value::get(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, Member] : Obj)
    if (Name == Key)
      return &Member;
  return nullptr;
}

std::string Value::stringOr(std::string_view Key,
                            const std::string &Default) const {
  const Value *V = get(Key);
  return V && V->K == Kind::String ? V->Str : Default;
}

std::optional<Value> parse(std::string_view Text, std::string *Error) {
  return Parser(Text).run(Error);
}

namespace {

const Value NullValue;

/// \p V as a diagnostic shows it: numbers and strings as JSON text (long
/// strings cut), containers by kind.
std::string describe(const Value &V) {
  std::string Out;
  switch (V.K) {
  case Value::Kind::Null: return "null";
  case Value::Kind::Bool: return V.B ? "true" : "false";
  case Value::Kind::Array: return "an array";
  case Value::Kind::Object: return "an object";
  case Value::Kind::Number: Writer(Out).shortest(V.Num); return Out;
  case Value::Kind::String: break;
  }
  constexpr size_t Shown = 40;
  Writer(Out).str(std::string_view(V.Str).substr(0, Shown));
  if (V.Str.size() > Shown)
    Out.insert(Out.size() - 1, "...");
  return Out;
}

/// An integral number within [Lo, Hi]; compared as doubles, so no
/// out-of-range value is ever cast.
bool integralIn(const Value &V, double Lo, double Hi) {
  return V.isNumber() && V.Num >= Lo && V.Num <= Hi &&
         V.Num == std::floor(V.Num);
}

std::string range(double Lo, double Hi) {
  std::string Out = "[";
  Writer(Out).shortest(Lo);
  Out += ", ";
  if (Hi == double(MaxCount))
    Out += "2^53";
  else
    Writer(Out).shortest(Hi);
  return Out + "]";
}

} // namespace

Reader::Reader(std::string *Error, const Value &Obj, std::string Context)
    : Error(Error), Obj(Obj), Context(std::move(Context)) {
  if (!Obj.isObject())
    fail(this->Context + " is not a JSON object");
}

Reader::Reader(const Value &Obj, std::string Context)
    : Reader(&OwnError, Obj, std::move(Context)) {}

Reader::Reader(std::string_view Text, std::string Context)
    : Error(&OwnError), Parsed(json::parse(Text, &OwnError)),
      Obj(Parsed ? *Parsed : NullValue), Context(std::move(Context)) {
  if (!Parsed)
    OwnError = this->Context + " is invalid JSON: " + OwnError;
  else if (!Obj.isObject())
    fail(this->Context + " is not a JSON object");
}

Reader Reader::child(const Value &Obj, std::string Context) {
  return Reader(Error, Obj, std::move(Context));
}

const Value *Reader::member(std::string_view Key) const {
  return ok() ? Obj.get(Key) : nullptr;
}

void Reader::reject(std::string_view Name, const Value &V,
                    const std::string &Expected) {
  fail(Context + " field \"" + std::string(Name) + "\" is " + describe(V) +
       ": " + Expected);
}

bool Reader::fail(std::string Message) {
  if (ok())
    *Error = std::move(Message);
  return false;
}

bool Reader::finish(std::string *Out) const {
  if (!ok() && Out)
    *Out = *Error;
  return ok();
}

const Value *Reader::typed(std::string_view Key, Value::Kind K,
                           const char *Expected) {
  const Value *V = member(Key);
  if (!V || V->K == K)
    return V;
  reject(Key, *V, Expected);
  return nullptr;
}

uint64_t Reader::count(const Value &V, std::string_view Name, uint64_t Max) {
  if (integralIn(V, 0.0, double(Max)))
    return uint64_t(V.Num);
  reject(Name, V, "count is not an integer in " + range(0.0, double(Max)));
  return 0;
}

int64_t Reader::integer(const Value &V, std::string_view Name, int64_t Lo,
                        int64_t Hi) {
  if (integralIn(V, double(Lo), double(Hi)))
    return int64_t(V.Num);
  reject(Name, V,
         "value is not an integer in " + range(double(Lo), double(Hi)));
  return Lo;
}

double Reader::number(const Value &V, std::string_view Name, double Lo,
                      double Hi) {
  if (V.isNumber() && V.Num >= Lo && V.Num <= Hi)
    return V.Num;
  bool Bounded = Lo != -std::numeric_limits<double>::max() ||
                 Hi != std::numeric_limits<double>::max();
  reject(Name, V,
         Bounded ? "value is not a number in " + range(Lo, Hi)
                 : "value is not a finite number");
  return Lo;
}

uint64_t Reader::count(std::string_view Key, uint64_t Default,
                       uint64_t Max) {
  const Value *V = member(Key);
  return V ? count(*V, Key, Max) : Default;
}

int64_t Reader::integer(std::string_view Key, int64_t Default, int64_t Lo,
                        int64_t Hi) {
  const Value *V = member(Key);
  return V ? integer(*V, Key, Lo, Hi) : Default;
}

double Reader::number(std::string_view Key, double Default, double Lo,
                      double Hi) {
  const Value *V = member(Key);
  return V ? number(*V, Key, Lo, Hi) : Default;
}

bool Reader::boolean(std::string_view Key, bool Default) {
  const Value *V = typed(Key, Value::Kind::Bool, "value is not a boolean");
  return V ? V->B : Default;
}

std::string Reader::string(std::string_view Key, std::string Default) {
  const Value *V = typed(Key, Value::Kind::String, "value is not a string");
  return V ? V->Str : Default;
}

std::vector<std::string> Reader::strings(std::string_view Key,
                                         std::vector<std::string> Default) {
  const char *Expected = "value is not an array of strings";
  const Value *V = typed(Key, Value::Kind::Array, Expected);
  if (!V)
    return Default;
  std::vector<std::string> Out;
  for (const Value &E : V->Arr) {
    if (!E.isString()) {
      reject(Key, *V, Expected);
      return Default;
    }
    Out.push_back(E.Str);
  }
  return Out;
}

double Reader::hexfloat(std::string_view Key, double Default) {
  const char *Expected = "value is not a hex-float string";
  const Value *V = typed(Key, Value::Kind::String, Expected);
  if (!V)
    return Default;
  char *End = nullptr;
  double X = std::strtod(V->Str.c_str(), &End);
  if (!V->Str.empty() && End == V->Str.c_str() + V->Str.size())
    return X;
  reject(Key, *V, Expected);
  return Default;
}

const Value *Reader::array(std::string_view Key) {
  const Value *V = typed(Key, Value::Kind::Array, "value is not an array");
  if (!V)
    fail(Context + " has no \"" + std::string(Key) + "\" array");
  return V;
}

const Value *Reader::object(std::string_view Key) {
  const Value *V = typed(Key, Value::Kind::Object, "value is not an object");
  if (!V)
    fail(Context + " has no \"" + std::string(Key) + "\" object");
  return V;
}

std::string objectText(std::string_view Text, std::string_view Marker) {
  size_t Open = Text.find(Marker);
  if (Open != std::string_view::npos)
    Open = Text.find('{', Open);
  int Depth = 0;
  bool InString = false;
  for (size_t I = Open; I < Text.size(); ++I) {
    char C = Text[I];
    if (InString) {
      if (C == '\\')
        ++I;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '{')
      ++Depth;
    else if (C == '}' && --Depth == 0)
      return std::string(Text.substr(Open, I - Open + 1));
  }
  return {};
}


Writer &Writer::integer(int64_t X) {
  char Text[24];
  Text[0] = ',';
  return element(Text, size_t(std::to_chars(Text + 1, Text + 24, X).ptr -
                              Text));
}

Writer &Writer::uinteger(uint64_t X) {
  char Text[24];
  Text[0] = ',';
  return element(Text, size_t(std::to_chars(Text + 1, Text + 24, X).ptr -
                              Text));
}

Writer &Writer::fixed(double X, int Precision) {
  char Text[1 + FixedBufferSize];
  Text[0] = ',';
  return element(Text, size_t(formatFixed(Text + 1, X, Precision) - Text));
}

Writer &Writer::g17(double X) {
  char Buf[32];
  return raw({Buf, size_t(std::snprintf(Buf, sizeof(Buf), "%.17g", X))});
}

Writer &Writer::shortest(double X) {
  char Buf[32];
  int Len = 0;
  for (int Precision : {15, 16, 17}) {
    Len = std::snprintf(Buf, sizeof(Buf), "%.*g", Precision, X);
    if (std::strtod(Buf, nullptr) == X)
      break;
  }
  return raw({Buf, size_t(Len)});
}

Writer &Writer::hexfloat(double X) {
  char Buf[40];
  return raw({Buf, size_t(std::snprintf(Buf, sizeof(Buf), "\"%a\"", X))});
}

} // namespace greenweb::json
