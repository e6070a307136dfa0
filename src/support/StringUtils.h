//===- support/StringUtils.h - String helpers -----------------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string helpers shared by the HTML/CSS/MiniScript front ends, the
/// report printers and the command-line flag parsers. All operate on
/// std::string_view and never throw.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_SUPPORT_STRINGUTILS_H
#define GREENWEB_SUPPORT_STRINGUTILS_H

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace greenweb {

/// ASCII whitespace: space, \t, \n, \v, \f, \r. The program never sets
/// a locale, so this and the ASCII case mapping below agree with
/// <cctype> without a libc call per character.
inline bool isAsciiSpace(char C) {
  return C == ' ' || C == '\t' || C == '\n' || C == '\r' || C == '\f' ||
         C == '\v';
}

/// \p C with A-Z mapped to a-z.
inline char asciiLower(char C) {
  return C >= 'A' && C <= 'Z' ? char(C - 'A' + 'a') : C;
}

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view S);

/// Splits on a separator character; empty pieces are kept.
std::vector<std::string_view> split(std::string_view S, char Sep);

/// Calls \p F on each piece of \p S between \p Sep characters, trimmed,
/// in order; empty pieces are skipped. splitTrimmed without the vector.
template <class Fn>
void forEachTrimmedPiece(std::string_view S, char Sep, Fn &&F) {
  for (size_t Start = 0;;) {
    size_t End = S.find(Sep, Start);
    std::string_view Piece = trim(S.substr(Start, End - Start));
    if (!Piece.empty())
      F(Piece);
    if (End == std::string_view::npos)
      return;
    Start = End + 1;
  }
}

/// Splits on a separator and trims each piece; empty pieces are dropped.
std::vector<std::string_view> splitTrimmed(std::string_view S, char Sep);

/// ASCII lowercase copy.
std::string toLower(std::string_view S);

/// True if \p S begins with \p Prefix.
bool startsWith(std::string_view S, std::string_view Prefix);

/// The value of \p Arg when it starts with \p Prefix ("--jobs="),
/// nullopt otherwise.
std::optional<std::string_view> flagValue(std::string_view Arg,
                                          std::string_view Prefix);

/// True if \p S ends with \p Suffix.
bool endsWith(std::string_view S, std::string_view Suffix);

/// Case-insensitive ASCII equality.
bool equalsIgnoreCase(std::string_view A, std::string_view B);

/// Parses a decimal integer; rejects trailing junk and values outside
/// int64_t.
std::optional<int64_t> parseInt(std::string_view S);

/// Parses a count for the unsigned type T (CLI flag values): what
/// parseInt accepts, minus negatives and values above T's range.
template <class T> std::optional<T> parseCount(std::string_view S) {
  std::optional<int64_t> N = parseInt(S);
  if (!N || *N < 0 || uint64_t(*N) > std::numeric_limits<T>::max())
    return std::nullopt;
  return T(*N);
}

/// Parses a floating-point number; rejects trailing junk.
std::optional<double> parseDouble(std::string_view S);

/// What a flag handler made of one command-line argument.
enum class ArgMatch {
  Unknown,  ///< Not this handler's argument.
  Taken,    ///< Consumed.
  Malformed ///< This handler's flag, with a value that does not parse.
};

/// Reports an argument no handler took on stderr ("error: unknown flag
/// ..." or "error: invalid value for --flag: ..."); true when \p M is
/// Taken.
bool acceptArg(ArgMatch M, std::string_view Arg);

/// Stores \p Value in \p Out when parseCount<T> accepts it.
template <class T> ArgMatch countArg(std::string_view Value, T &Out) {
  std::optional<T> N = parseCount<T>(Value);
  if (!N)
    return ArgMatch::Malformed;
  Out = *N;
  return ArgMatch::Taken;
}

/// Stores \p Message in \p *Error when \p Error is given; returns false,
/// so a function reporting through a `std::string *Error` out-parameter
/// fails with `return failWith(Error, ...)`.
inline bool failWith(std::string *Error, std::string Message) {
  if (Error)
    *Error = std::move(Message);
  return false;
}

/// Escapes \p S for embedding in a JSON string literal: a backslash
/// before '"' and '\\', the two-character escapes for backspace, form
/// feed, newline, carriage return and tab, and "\u00XX" for any other
/// byte below 0x20. Other bytes, UTF-8 included, pass through.
std::string jsonEscape(std::string_view S);

/// Append-in-place writers for the serializers' hot loops. Each emits
/// exactly the bytes of the printf conversion it names, without a
/// format parse or a temporary string.

/// Appends jsonEscape(S).
void appendJsonEscaped(std::string &Out, std::string_view S);

/// Appends \p X as "%lld" / "%llu" would.
void appendInt(std::string &Out, int64_t X);
void appendUInt(std::string &Out, uint64_t X);

/// |X| * 10^Precision rounded to an integer exactly as printf's "%.*f"
/// rounds the exact binary value (halves to even): the digits of that
/// conversion without the point. Nullopt when the product reaches 2^52,
/// and for NaN and infinities.
std::optional<uint64_t> fixedDigits(double X, int Precision);

/// Bytes formatFixed may write: sign, the 309 integer digits of
/// DBL_MAX, the point and up to 17 fraction digits.
inline constexpr size_t FixedBufferSize = 330;

/// Writes \p X as "%.*f" would with \p Precision (0..17) digits after
/// the point into [First, First + FixedBufferSize), including
/// "nan"/"-nan"/"inf"/"-inf" and round-half-even ties on the exact
/// binary value. Returns the end of the written text.
char *formatFixed(char *First, double X, int Precision);

/// Appends formatFixed's text.
void appendFixed(std::string &Out, double X, int Precision);

/// Writes \p X as "%.6f" with trailing zeros trimmed down to one digit
/// after the point ("1.5", "2.0", "-0.0", "0.000001"), the number format
/// of telemetry log fields, like formatFixed; returns the end.
char *formatTrimmedFixed6(char *First, double X);

/// Appends formatTrimmedFixed6's text.
void appendTrimmedFixed6(std::string &Out, double X);

/// Builds a short text (one log line, one trace event) in a stack
/// buffer and appends it to \p Out in one piece when destroyed: a line
/// is a dozen short pieces, and appending each to the string costs a
/// capacity check and a copy apiece. A piece that does not fit flushes
/// the buffer first; a piece longer than the buffer goes straight out.
class LineBuffer {
public:
  explicit LineBuffer(std::string &Out) : Out(Out) {}
  ~LineBuffer() { flush(); }
  LineBuffer(const LineBuffer &) = delete;
  LineBuffer &operator=(const LineBuffer &) = delete;

  void text(std::string_view S) {
    room(S.size());
    if (S.size() > Capacity) {
      Out += S;
      return;
    }
    std::memcpy(Buf + Len, S.data(), S.size());
    Len += S.size();
  }
  /// formatFixed's text.
  void fixed(double X, int Precision) {
    room(FixedBufferSize);
    Len = size_t(formatFixed(Buf + Len, X, Precision) - Buf);
  }
  /// formatTrimmedFixed6's text.
  void trimmedFixed6(double X) {
    room(FixedBufferSize);
    Len = size_t(formatTrimmedFixed6(Buf + Len, X) - Buf);
  }
  void integer(int64_t X) {
    room(24);
    Len = size_t(std::to_chars(Buf + Len, Buf + Capacity, X).ptr - Buf);
  }
  /// appendJsonEscaped's text.
  void escaped(std::string_view S) {
    bool Plain = S.size() <= Capacity - Len;
    for (size_t I = 0; Plain && I != S.size(); ++I) {
      unsigned char C = static_cast<unsigned char>(S[I]);
      Plain = C >= 0x20 && C != '"' && C != '\\';
    }
    if (Plain) {
      text(S);
      return;
    }
    flush();
    appendJsonEscaped(Out, S);
  }

private:
  static constexpr size_t Capacity = 1024;

  void room(size_t N) {
    if (Capacity - Len < N)
      flush();
  }
  void flush() {
    Out.append(Buf, Len);
    Len = 0;
  }

  std::string &Out;
  size_t Len = 0;
  char Buf[Capacity];
};

/// printf-style formatting into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace greenweb

#endif // GREENWEB_SUPPORT_STRINGUTILS_H
