//===- css/CssParser.cpp - CSS parser ------------------------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "css/CssParser.h"

#include "profiling/Profiler.h"
#include "support/StringUtils.h"

#include <cassert>

using namespace greenweb;
using namespace greenweb::css;

namespace {

class Parser {
public:
  explicit Parser(std::string_view Source) : Tokens(lex(Source)) {}

  Stylesheet parseSheet();
  ComplexSelector parseOneSelector();

private:
  const Token &peek(size_t Ahead = 0) const {
    size_t Index = std::min(Pos + Ahead, Tokens.size() - 1);
    return Tokens[Index];
  }
  const Token &advance() {
    const Token &T = Tokens[Pos];
    if (Pos + 1 < Tokens.size())
      ++Pos;
    return T;
  }
  bool atEnd() const { return peek().is(TokenKind::EndOfFile); }

  void diagnose(Stylesheet &Sheet, const std::string &Message) {
    Sheet.Diagnostics.push_back(
        formatString("line %u: %s", peek().Line, Message.c_str()));
  }

  /// Skips to the matching close brace of an already-consumed open brace.
  void skipBlock();
  /// Skips tokens until a top-level '{' or EOF (bad selector recovery).
  void skipToBlockOrEof();

  bool parseCompound(SimpleSelector &Out);
  bool parseComplex(ComplexSelector &Out);
  bool parseSelectorList(std::vector<ComplexSelector> &Out,
                         Stylesheet &Sheet);
  void parseDeclarationBlock(StyleRule &Rule, Stylesheet &Sheet);

  std::vector<Token> Tokens;
  size_t Pos = 0;
};

void Parser::skipBlock() {
  unsigned Depth = 1;
  while (!atEnd() && Depth > 0) {
    const Token &T = advance();
    if (T.is(TokenKind::LBrace))
      ++Depth;
    else if (T.is(TokenKind::RBrace))
      --Depth;
  }
}

void Parser::skipToBlockOrEof() {
  while (!atEnd() && !peek().is(TokenKind::LBrace))
    advance();
}

bool Parser::parseCompound(SimpleSelector &Out) {
  bool Any = false;
  // Optional tag or universal selector first.
  if (peek().is(TokenKind::Ident)) {
    Out.Tag = advance().Text;
    Any = true;
  } else if (peek().is(TokenKind::Star)) {
    advance();
    Out.Tag.assign(1, '*');
    Any = true;
  }
  // Then any run of #id, .class, :pseudo with no intervening space.
  while (true) {
    const Token &T = peek();
    if (Any && T.PrecededBySpace)
      break;
    if (T.is(TokenKind::Hash)) {
      Out.Id = advance().Text;
      Any = true;
      continue;
    }
    if (T.is(TokenKind::Dot) && peek(1).is(TokenKind::Ident) &&
        !peek(1).PrecededBySpace) {
      advance();
      Out.Classes.push_back(advance().Text);
      Any = true;
      continue;
    }
    if (T.is(TokenKind::Colon) && peek(1).is(TokenKind::Ident) &&
        !peek(1).PrecededBySpace) {
      advance();
      Out.PseudoClasses.push_back(advance().Text);
      Any = true;
      continue;
    }
    break;
  }
  return Any;
}

bool Parser::parseComplex(ComplexSelector &Out) {
  SimpleSelector First;
  if (!parseCompound(First))
    return false;
  Out.Compounds.push_back(std::move(First));
  while (true) {
    // Child combinator?
    if (peek().is(TokenKind::Greater)) {
      advance();
      SimpleSelector Next;
      if (!parseCompound(Next))
        return false;
      Out.Combinators.push_back(Combinator::Child);
      Out.Compounds.push_back(std::move(Next));
      continue;
    }
    // Descendant combinator: next compound begins after whitespace.
    const Token &T = peek();
    bool StartsCompound = T.is(TokenKind::Ident) || T.is(TokenKind::Star) ||
                          T.is(TokenKind::Hash) ||
                          (T.is(TokenKind::Dot)) ||
                          (T.is(TokenKind::Colon));
    if (StartsCompound && T.PrecededBySpace) {
      SimpleSelector Next;
      if (!parseCompound(Next))
        return false;
      Out.Combinators.push_back(Combinator::Descendant);
      Out.Compounds.push_back(std::move(Next));
      continue;
    }
    return true;
  }
}

bool Parser::parseSelectorList(std::vector<ComplexSelector> &Out,
                               Stylesheet &Sheet) {
  while (true) {
    ComplexSelector Selector;
    if (!parseComplex(Selector)) {
      diagnose(Sheet, "expected selector");
      return false;
    }
    Out.push_back(std::move(Selector));
    if (!peek().is(TokenKind::Comma))
      return true;
    advance();
  }
}

void Parser::parseDeclarationBlock(StyleRule &Rule, Stylesheet &Sheet) {
  assert(peek().is(TokenKind::LBrace) && "block must start with '{'");
  advance();
  while (!atEnd() && !peek().is(TokenKind::RBrace)) {
    if (peek().is(TokenKind::Semicolon)) {
      advance();
      continue;
    }
    if (!peek().is(TokenKind::Ident)) {
      diagnose(Sheet, formatString("expected property name, found %s",
                                   tokenKindName(peek().Kind)));
      // Recover: skip to next ';' or '}'.
      while (!atEnd() && !peek().is(TokenKind::Semicolon) &&
             !peek().is(TokenKind::RBrace))
        advance();
      continue;
    }
    Declaration Decl;
    Decl.Line = peek().Line;
    Decl.Property = toLower(advance().Text);
    if (!peek().is(TokenKind::Colon)) {
      diagnose(Sheet, formatString("missing ':' after property '%s'",
                                   Decl.Property.c_str()));
      while (!atEnd() && !peek().is(TokenKind::Semicolon) &&
             !peek().is(TokenKind::RBrace))
        advance();
      continue;
    }
    advance();
    // Collect value tokens until ';' or '}'.
    while (!atEnd() && !peek().is(TokenKind::Semicolon) &&
           !peek().is(TokenKind::RBrace)) {
      const Token &T = advance();
      if (!Decl.ValueText.empty() &&
          !(T.is(TokenKind::Comma) || T.is(TokenKind::RParen)))
        Decl.ValueText += ' ';
      if (T.is(TokenKind::Hash))
        Decl.ValueText += '#';
      Decl.ValueText += T.Text;
      if (T.is(TokenKind::Dimension))
        Decl.ValueText += T.Unit;
      if (T.is(TokenKind::Percentage))
        Decl.ValueText += '%';
      if (T.is(TokenKind::Comma))
        Decl.ValueText += ',';
      Decl.Value.push_back(T);
    }
    if (Decl.Value.empty()) {
      diagnose(Sheet,
               formatString("empty value for property '%s'",
                            Decl.Property.c_str()));
      continue;
    }
    Rule.Declarations.push_back(std::move(Decl));
  }
  if (peek().is(TokenKind::RBrace))
    advance();
}

Stylesheet Parser::parseSheet() {
  Stylesheet Sheet;
  while (!atEnd()) {
    // At-rules (e.g. @media) are recognized and skipped: the simulated
    // browser has a single form factor.
    if (peek().is(TokenKind::AtKeyword)) {
      std::string Name = advance().Text;
      skipToBlockOrEof();
      if (peek().is(TokenKind::LBrace)) {
        advance();
        skipBlock();
      }
      Sheet.Diagnostics.push_back(
          formatString("skipped unsupported at-rule '@%s'", Name.c_str()));
      continue;
    }
    StyleRule Rule;
    if (!parseSelectorList(Rule.Selectors, Sheet)) {
      skipToBlockOrEof();
      if (peek().is(TokenKind::LBrace)) {
        advance();
        skipBlock();
      } else {
        break;
      }
      continue;
    }
    if (!peek().is(TokenKind::LBrace)) {
      diagnose(Sheet, "expected '{' after selector");
      skipToBlockOrEof();
      if (atEnd())
        break;
      continue;
    }
    parseDeclarationBlock(Rule, Sheet);
    Sheet.Rules.push_back(std::move(Rule));
  }
  return Sheet;
}

ComplexSelector Parser::parseOneSelector() {
  ComplexSelector Out;
  if (!parseComplex(Out))
    Out.Compounds.clear();
  return Out;
}

} // namespace

Stylesheet greenweb::css::parseStylesheet(std::string_view Source) {
  GW_PROF_SCOPE("css.parse");
  return Parser(Source).parseSheet();
}

ComplexSelector greenweb::css::parseSelector(std::string_view Source) {
  return Parser(Source).parseOneSelector();
}
