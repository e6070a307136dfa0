//===- html/HtmlParser.cpp - HTML parser -------------------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "html/HtmlParser.h"

#include "profiling/Profiler.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace greenweb;
using namespace greenweb::html;

namespace {

/// ASCII letters, digits, '-' and '_' (no libc call per character).
bool isNameChar(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
         (C >= '0' && C <= '9') || C == '-' || C == '_';
}

/// Tags that never have content or a closing tag.
bool isVoidTag(std::string_view Tag) {
  return Tag == "br" || Tag == "hr" || Tag == "img" || Tag == "input" ||
         Tag == "meta" || Tag == "link" || Tag == "area" || Tag == "base" ||
         Tag == "col" || Tag == "embed" || Tag == "source" ||
         Tag == "track" || Tag == "wbr";
}

/// Tags whose body is raw text until the matching close tag.
bool isRawTextTag(std::string_view Tag) {
  return Tag == "style" || Tag == "script";
}

/// Scans the source in slices: tokens are taken whole with find() and
/// substr() rather than built a character at a time, and line numbers
/// are counted only when a diagnostic needs one.
class HtmlParser {
public:
  explicit HtmlParser(std::string_view Source) : Src(Source) {}

  ParseResult run();

private:
  bool atEnd() const { return Pos >= Src.size(); }
  char peek(size_t Ahead = 0) const {
    return Pos + Ahead < Src.size() ? Src[Pos + Ahead] : '\0';
  }
  /// Takes the source from Pos up to \p End (clamped) and moves past it.
  std::string_view take(size_t End) {
    End = std::min(End, Src.size());
    std::string_view Slice = Src.substr(Pos, End - Pos);
    Pos = End;
    return Slice;
  }
  /// Moves past the next \p C, or to the end when there is none.
  void skipPast(char C) {
    size_t At = Src.find(C, Pos);
    Pos = At == std::string_view::npos ? Src.size() : At + 1;
  }
  void skipSpace() {
    while (!atEnd() && isAsciiSpace(peek()))
      ++Pos;
  }
  /// 1-based line of Pos. Pos only moves forward, so each newline is
  /// counted once over the whole parse.
  unsigned line() {
    Line += unsigned(std::count(Src.begin() + LineCountedTo,
                                Src.begin() + Pos, '\n'));
    LineCountedTo = Pos;
    return Line;
  }
  void diagnose(std::string Message) {
    Diags.push_back(formatString("line %u: %s", line(), Message.c_str()));
  }

  /// Reads a tag or attribute name, lowercased.
  std::string readName();
  std::string_view readAttributeValue();
  void skipComment();
  /// Reads raw text up to `</tag>`; consumes the close tag.
  std::string readRawTextUntilClose(std::string_view Tag);
  /// Parses one `<tag ...>` open tag after '<' and the name; applies
  /// attributes to \p E. Returns true if the tag was self-closing.
  bool parseAttributes(Element &E);

  void applyAttribute(Element &E, std::string_view Name,
                      std::string_view Value);

  std::string_view Src;
  size_t Pos = 0;
  unsigned Line = 1;
  size_t LineCountedTo = 0;
  std::vector<std::string> Diags;
};

std::string HtmlParser::readName() {
  size_t End = Pos;
  while (End < Src.size() && isNameChar(Src[End]))
    ++End;
  return toLower(take(End));
}

std::string_view HtmlParser::readAttributeValue() {
  skipSpace();
  if (peek() == '"' || peek() == '\'') {
    char Quote = Src[Pos++];
    std::string_view Value = take(Src.find(Quote, Pos));
    if (!atEnd())
      ++Pos; // closing quote
    return Value;
  }
  // Unquoted value: read to whitespace, '>' or '/'.
  size_t End = Pos;
  while (End < Src.size() && !isAsciiSpace(Src[End]) && Src[End] != '>' &&
         Src[End] != '/')
    ++End;
  return take(End);
}

void HtmlParser::skipComment() {
  // Caller consumed "<!--".
  size_t Close = Src.find("-->", Pos);
  if (Close == std::string_view::npos) {
    Pos = Src.size();
    diagnose("unterminated comment");
    return;
  }
  Pos = Close + 3;
}

std::string HtmlParser::readRawTextUntilClose(std::string_view Tag) {
  std::string CloseTag = "</" + std::string(Tag);
  for (size_t From = Pos;;) {
    size_t At = Src.find("</", From);
    if (At == std::string_view::npos)
      break;
    // Check for the close tag case-insensitively.
    if (equalsIgnoreCase(Src.substr(At, CloseTag.size()), CloseTag)) {
      std::string Body(take(At));
      // Consume "</tag" then to '>'.
      Pos += CloseTag.size();
      skipPast('>');
      return Body;
    }
    From = At + 1;
  }
  std::string Body(take(Src.size()));
  diagnose(formatString("unterminated <%s> block",
                        std::string(Tag).c_str()));
  return Body;
}

void HtmlParser::applyAttribute(Element &E, std::string_view Name,
                                std::string_view Value) {
  if (Name == "id") {
    E.setId(std::string(Value));
    return;
  }
  if (Name == "class") {
    forEachTrimmedPiece(Value, ' ',
                        [&](std::string_view Class) { E.addClass(Class); });
    return;
  }
  if (Name == "style") {
    // Inline style: "prop: value; prop2: value2".
    forEachTrimmedPiece(Value, ';', [&](std::string_view Entry) {
      size_t Colon = Entry.find(':');
      if (Colon == std::string_view::npos)
        return;
      E.setStyleProperty(toLower(trim(Entry.substr(0, Colon))),
                         std::string(trim(Entry.substr(Colon + 1))));
    });
    return;
  }
  E.setAttribute(Name, std::string(Value));
}

bool HtmlParser::parseAttributes(Element &E) {
  while (true) {
    skipSpace();
    if (atEnd()) {
      diagnose("unterminated open tag");
      return false;
    }
    if (peek() == '>') {
      ++Pos;
      return false;
    }
    if (peek() == '/' && peek(1) == '>') {
      Pos += 2;
      return true;
    }
    std::string Name = readName();
    if (Name.empty()) {
      diagnose(formatString("unexpected character '%c' in tag", peek()));
      ++Pos;
      continue;
    }
    skipSpace();
    std::string_view Value;
    if (peek() == '=') {
      ++Pos;
      Value = readAttributeValue();
    }
    applyAttribute(E, Name, Value);
  }
}

ParseResult HtmlParser::run() {
  ParseResult Result;
  Result.Doc = std::make_unique<Document>();
  Document &Doc = *Result.Doc;

  // Stack of open elements; the document root is the base.
  std::vector<Element *> Stack = {&Doc.root()};

  while (!atEnd()) {
    if (peek() != '<') {
      // Text content: attach to the current element.
      std::string_view Trimmed = trim(take(Src.find('<', Pos)));
      if (!Trimmed.empty()) {
        std::string Existing(Stack.back()->attribute("text"));
        if (!Existing.empty())
          Existing += ' ';
        Existing += Trimmed;
        Stack.back()->setAttribute("text", std::move(Existing));
      }
      continue;
    }

    // '<' dispatch.
    if (peek(1) == '!') {
      if (peek(2) == '-' && peek(3) == '-') {
        Pos += 4;
        skipComment();
        continue;
      }
      // DOCTYPE and friends: skip to '>'.
      skipPast('>');
      continue;
    }

    if (peek(1) == '/') {
      Pos += 2;
      std::string Name = readName();
      skipPast('>');
      // Pop to the matching open tag if present.
      bool Found = false;
      for (size_t I = Stack.size(); I-- > 1;) {
        if (Stack[I]->tagName() == Name) {
          Stack.resize(I);
          Found = true;
          break;
        }
      }
      if (!Found)
        diagnose(formatString("stray close tag </%s>", Name.c_str()));
      continue;
    }

    ++Pos; // '<'
    std::string Name = readName();
    if (Name.empty()) {
      diagnose("stray '<'");
      continue;
    }

    // <html> and <body> map onto the implicit root rather than nesting.
    // Their attributes land on an unattached element: it draws a node id
    // and its id stays indexed, both for the document's lifetime.
    if (Name == "html" || Name == "body" || Name == "head") {
      parseAttributes(*Doc.createElement(Name));
      continue;
    }

    Element *E = Stack.back()->createChild(Name);
    bool SelfClosed = parseAttributes(*E);

    if (isRawTextTag(Name)) {
      std::string Body = readRawTextUntilClose(Name);
      if (Name == "style")
        Doc.StyleTexts.push_back(std::move(Body));
      else
        Doc.ScriptTexts.push_back(std::move(Body));
      continue;
    }
    if (!SelfClosed && !isVoidTag(Name))
      Stack.push_back(E);
  }

  if (Stack.size() > 1)
    Diags.push_back(formatString("unclosed element <%s> at end of input",
                                 Stack.back()->tagName().c_str()));
  Result.Diagnostics = std::move(Diags);
  return Result;
}

} // namespace

ParseResult greenweb::html::parseHtml(std::string_view Source) {
  GW_PROF_SCOPE("html.parse");
  return HtmlParser(Source).run();
}
