//===- support/Json.cpp - Minimal JSON document parser --------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/StringUtils.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace greenweb::json {

namespace {

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
  std::string Msg = "malformed JSON";

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
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos++];
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return false;
      char E = Text[Pos++];
      switch (E) {
      case '"': Out += '"'; break;
      case '\\': Out += '\\'; break;
      case '/': Out += '/'; break;
      case 'b': Out += '\b'; break;
      case 'f': Out += '\f'; break;
      case 'n': Out += '\n'; break;
      case 'r': Out += '\r'; break;
      case 't': Out += '\t'; break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return false;
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
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
        // UTF-8 encode the BMP code point (surrogate pairs in this
        // repo's artifacts do not occur; a lone surrogate encodes
        // as-is, which round-trips harmlessly).
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
        break;
      }
      default:
        return false;
      }
    }
    if (Pos >= Text.size())
      return false;
    ++Pos; // closing quote
    return true;
  }

  bool number(double &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    if (Pos == Start || (Text[Start] == '-' && Pos == Start + 1))
      return false;
    if (Pos < Text.size() && Text[Pos] == '.') {
      ++Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    Out = std::strtod(std::string(Text.substr(Start, Pos - Start)).c_str(),
                      nullptr);
    return true;
  }

  bool value(Value &V) {
    if (Pos >= Text.size())
      return false;
    switch (Text[Pos]) {
    case '{': {
      ++Pos;
      V.K = Value::Kind::Object;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      while (true) {
        skipWs();
        std::string Key;
        if (!string(Key)) {
          Msg = "expected object key";
          return false;
        }
        skipWs();
        if (Pos >= Text.size() || Text[Pos] != ':') {
          Msg = "expected ':'";
          return false;
        }
        ++Pos;
        skipWs();
        Value Member;
        if (!value(Member))
          return false;
        V.Obj.emplace_back(std::move(Key), std::move(Member));
        skipWs();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == '}') {
          ++Pos;
          return true;
        }
        Msg = "expected ',' or '}'";
        return false;
      }
    }
    case '[': {
      ++Pos;
      V.K = Value::Kind::Array;
      skipWs();
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      while (true) {
        skipWs();
        Value Elem;
        if (!value(Elem))
          return false;
        V.Arr.push_back(std::move(Elem));
        skipWs();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == ']') {
          ++Pos;
          return true;
        }
        Msg = "expected ',' or ']'";
        return false;
      }
    }
    case '"':
      V.K = Value::Kind::String;
      if (string(V.Str))
        return true;
      Msg = "unterminated string";
      return false;
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
      if (number(V.Num))
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

std::optional<uint64_t> asCount(const Value *V) {
  if (!V || !V->isNumber() || !(V->Num >= 0.0 && V->Num <= 0x1p53) ||
      V->Num != std::floor(V->Num))
    return std::nullopt;
  return uint64_t(V->Num);
}

std::optional<Value> parse(std::string_view Text, std::string *Error) {
  return Parser(Text).run(Error);
}

} // namespace greenweb::json
