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

double Value::numberOr(std::string_view Key, double Default) const {
  const Value *V = get(Key);
  return V && V->K == Kind::Number ? V->Num : Default;
}

std::string Value::stringOr(std::string_view Key,
                            const std::string &Default) const {
  const Value *V = get(Key);
  return V && V->K == Kind::String ? V->Str : Default;
}

double Value::hexfloatOr(std::string_view Key, double Default) const {
  const Value *V = get(Key);
  return V && V->K == Kind::String ? std::strtod(V->Str.c_str(), nullptr)
                                   : Default;
}

std::optional<uint64_t> asCount(const Value *V) {
  if (!V || !V->isNumber() || !(V->Num >= 0.0 && V->Num <= 0x1p53) ||
      V->Num != std::floor(V->Num))
    return std::nullopt;
  return uint64_t(V->Num);
}

std::optional<Value> parse(std::string_view Text, std::string *Error) {
  return Parser(Text).run(Error);
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
