//===- support/StringUtils.cpp - String helpers ---------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

using namespace greenweb;

std::string_view greenweb::trim(std::string_view S) {
  size_t Begin = 0;
  while (Begin < S.size() && isAsciiSpace(S[Begin]))
    ++Begin;
  size_t End = S.size();
  while (End > Begin && isAsciiSpace(S[End - 1]))
    --End;
  return S.substr(Begin, End - Begin);
}

std::vector<std::string_view> greenweb::split(std::string_view S, char Sep) {
  std::vector<std::string_view> Pieces;
  size_t Start = 0;
  while (true) {
    size_t Pos = S.find(Sep, Start);
    if (Pos == std::string_view::npos) {
      Pieces.push_back(S.substr(Start));
      return Pieces;
    }
    Pieces.push_back(S.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::vector<std::string_view> greenweb::splitTrimmed(std::string_view S,
                                                     char Sep) {
  std::vector<std::string_view> Pieces;
  forEachTrimmedPiece(S, Sep,
                      [&](std::string_view Piece) { Pieces.push_back(Piece); });
  return Pieces;
}

std::string greenweb::toLower(std::string_view S) {
  std::string Result(S);
  for (char &C : Result)
    C = asciiLower(C);
  return Result;
}

bool greenweb::startsWith(std::string_view S, std::string_view Prefix) {
  return S.size() >= Prefix.size() && S.substr(0, Prefix.size()) == Prefix;
}

std::optional<std::string_view> greenweb::flagValue(std::string_view Arg,
                                                   std::string_view Prefix) {
  if (!startsWith(Arg, Prefix))
    return std::nullopt;
  return Arg.substr(Prefix.size());
}

bool greenweb::acceptArg(ArgMatch M, std::string_view Arg) {
  if (M == ArgMatch::Unknown)
    std::fprintf(stderr, "error: unknown %s %.*s\n",
                 startsWith(Arg, "-") ? "flag" : "argument", int(Arg.size()),
                 Arg.data());
  if (M == ArgMatch::Malformed) {
    std::string_view Flag = Arg.substr(0, Arg.find('='));
    std::fprintf(stderr, "error: invalid value for %.*s: %.*s\n",
                 int(Flag.size()), Flag.data(), int(Arg.size()), Arg.data());
  }
  return M == ArgMatch::Taken;
}

bool greenweb::endsWith(std::string_view S, std::string_view Suffix) {
  return S.size() >= Suffix.size() &&
         S.substr(S.size() - Suffix.size()) == Suffix;
}

bool greenweb::equalsIgnoreCase(std::string_view A, std::string_view B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0, E = A.size(); I != E; ++I)
    if (asciiLower(A[I]) != asciiLower(B[I]))
      return false;
  return true;
}

std::optional<int64_t> greenweb::parseInt(std::string_view S) {
  S = trim(S);
  if (S.empty())
    return std::nullopt;
  std::string Buf(S);
  char *End = nullptr;
  errno = 0;
  long long Value = std::strtoll(Buf.c_str(), &End, 10);
  if (End != Buf.c_str() + Buf.size() || errno == ERANGE)
    return std::nullopt;
  return int64_t(Value);
}

std::optional<double> greenweb::parseDouble(std::string_view S) {
  S = trim(S);
  if (S.empty())
    return std::nullopt;
  std::string Buf(S);
  char *End = nullptr;
  double Value = std::strtod(Buf.c_str(), &End);
  if (End != Buf.c_str() + Buf.size())
    return std::nullopt;
  return Value;
}

std::string greenweb::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  if (Needed < 0) {
    va_end(ArgsCopy);
    return std::string();
  }
  std::string Result(size_t(Needed), '\0');
  std::vsnprintf(Result.data(), size_t(Needed) + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Result;
}

std::string greenweb::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  appendJsonEscaped(Out, S);
  return Out;
}

void greenweb::appendJsonEscaped(std::string &Out, std::string_view S) {
  static constexpr char Hex[] = "0123456789abcdef";
  size_t Start = 0;
  for (size_t I = 0, E = S.size(); I != E; ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(S.data() + Start, I - Start);
    Start = I + 1;
    Out += '\\';
    switch (C) {
    case '"': Out += '"'; break;
    case '\\': Out += '\\'; break;
    case '\b': Out += 'b'; break;
    case '\f': Out += 'f'; break;
    case '\n': Out += 'n'; break;
    case '\r': Out += 'r'; break;
    case '\t': Out += 't'; break;
    default:
      Out += "u00";
      Out += Hex[C >> 4];
      Out += Hex[C & 0xF];
    }
  }
  Out.append(S.data() + Start, S.size() - Start);
}

void greenweb::appendInt(std::string &Out, int64_t X) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), X).ptr);
}

void greenweb::appendUInt(std::string &Out, uint64_t X) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), X).ptr);
}

/// 10^0 .. 10^17, every one exact as a double too.
static constexpr std::array<uint64_t, 18> Pow10 = [] {
  std::array<uint64_t, 18> T{1};
  for (size_t I = 1; I < T.size(); ++I)
    T[I] = T[I - 1] * 10;
  return T;
}();

std::optional<uint64_t> greenweb::fixedDigits(double X, int Precision) {
  assert(Precision >= 0 && Precision <= 17 && "precision out of range");
  // 10^P is exact, so Scaled is the exact product rounded once.
  // Rounding is monotone and every k + 0.5 below 2^52 is a double, so
  // Scaled lies on the same side of each half-integer as the exact
  // product, or exactly on it. NaN and infinities fail the range test.
  double A = std::fabs(X);
  double Scale = double(Pow10[Precision]);
  double Scaled = A * Scale;
  if (!(Scaled < 0x1p52))
    return std::nullopt;
  double Floor = std::floor(Scaled);
  double Frac = Scaled - Floor;
  uint64_t N = uint64_t(Floor);
  if (Frac != 0.5)
    return N + (Frac > 0.5 ? 1 : 0);
  // On a half, the product's exact residual decides; a true tie rounds
  // to even.
  double Residual = std::fma(A, Scale, -Scaled);
  return N + (Residual > 0.0 || (Residual == 0.0 && N % 2 == 1) ? 1 : 0);
}

char *greenweb::formatFixed(char *First, double X, int Precision) {
  if (std::optional<uint64_t> N = fixedDigits(X, Precision)) {
    uint64_t Unit = Pow10[Precision];
    if (std::signbit(X))
      *First++ = '-';
    First = std::to_chars(First, First + 24, *N / Unit).ptr;
    if (Precision == 0)
      return First;
    *First++ = '.';
    uint64_t Digits = *N % Unit;
    for (char *P = First + Precision; P != First; Digits /= 10)
      *--P = char('0' + Digits % 10);
    return First + Precision;
  }
  // printf spells non-finite values with the sign bit, NaN included.
  if (!std::isfinite(X)) {
    std::string_view Text = std::isnan(X) ? "-nan" : "-inf";
    if (!std::signbit(X))
      Text.remove_prefix(1);
    return std::copy(Text.begin(), Text.end(), First);
  }
  // |X| * 10^P >= 2^52. std::to_chars with a precision is specified as
  // printf's "%.*f".
  std::to_chars_result R = std::to_chars(First, First + FixedBufferSize, X,
                                         std::chars_format::fixed, Precision);
  assert(R.ec == std::errc() && "FixedBufferSize too small");
  return R.ptr;
}

void greenweb::appendFixed(std::string &Out, double X, int Precision) {
  char Buf[FixedBufferSize];
  Out.append(Buf, formatFixed(Buf, X, Precision));
}

char *greenweb::formatTrimmedFixed6(char *First, double X) {
  char *End = formatFixed(First, X, 6);
  if (std::isfinite(X)) {
    // A finite "%.6f" always has a point, which stops the scan.
    while (End[-1] == '0')
      --End;
    if (End[-1] == '.')
      ++End;
  }
  return End;
}

void greenweb::appendTrimmedFixed6(std::string &Out, double X) {
  char Buf[FixedBufferSize];
  Out.append(Buf, formatTrimmedFixed6(Buf, X));
}
