//===- css/CssAst.cpp - CSS object model --------------------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "css/CssAst.h"

#include "dom/Dom.h"
#include "support/StringUtils.h"

#include <cassert>

using namespace greenweb;
using namespace greenweb::css;

//===----------------------------------------------------------------------===//
// SimpleSelector
//===----------------------------------------------------------------------===//

bool SimpleSelector::isQosQualified() const {
  for (const std::string &Pseudo : PseudoClasses)
    if (equalsIgnoreCase(Pseudo, "qos"))
      return true;
  return false;
}

bool SimpleSelector::matches(const Element &E) const {
  if (!Tag.empty() && Tag != "*" && !equalsIgnoreCase(Tag, E.tagName()))
    return false;
  if (!Id.empty() && Id != E.id())
    return false;
  for (const std::string &Class : Classes)
    if (!E.hasClass(Class))
      return false;
  // Pseudo-classes (:QoS in particular) annotate the rule; they do not
  // constrain which elements match.
  return true;
}

Specificity SimpleSelector::specificity() const {
  Specificity S;
  if (!Id.empty())
    S.Ids = 1;
  S.Classes = int(Classes.size() + PseudoClasses.size());
  if (!Tag.empty() && Tag != "*")
    S.Tags = 1;
  return S;
}

std::string SimpleSelector::str() const {
  std::string Out = Tag;
  if (!Id.empty())
    Out += "#" + Id;
  for (const std::string &Class : Classes)
    Out += "." + Class;
  for (const std::string &Pseudo : PseudoClasses)
    Out += ":" + Pseudo;
  if (Out.empty())
    Out.push_back('*');
  return Out;
}

//===----------------------------------------------------------------------===//
// ComplexSelector
//===----------------------------------------------------------------------===//

bool ComplexSelector::isQosQualified() const {
  return !Compounds.empty() && Compounds.back().isQosQualified();
}

bool ComplexSelector::matches(const Element &E) const {
  if (Compounds.empty())
    return false;
  // Match the subject compound against E, then walk up the ancestor chain
  // right-to-left for the remaining compounds.
  size_t Index = Compounds.size() - 1;
  if (!Compounds[Index].matches(E))
    return false;
  const Element *Current = &E;
  while (Index > 0) {
    Combinator Comb = Combinators[Index - 1];
    --Index;
    const Element *Parent = Current->parent();
    if (Comb == Combinator::Child) {
      if (!Parent || !Compounds[Index].matches(*Parent))
        return false;
      Current = Parent;
      continue;
    }
    // Descendant: find any ancestor matching Compounds[Index].
    const Element *Ancestor = Parent;
    while (Ancestor && !Compounds[Index].matches(*Ancestor))
      Ancestor = Ancestor->parent();
    if (!Ancestor)
      return false;
    Current = Ancestor;
  }
  return true;
}

Specificity ComplexSelector::specificity() const {
  Specificity Total;
  for (const SimpleSelector &Compound : Compounds) {
    Specificity S = Compound.specificity();
    Total.Ids += S.Ids;
    Total.Classes += S.Classes;
    Total.Tags += S.Tags;
  }
  return Total;
}

std::string ComplexSelector::str() const {
  assert(Combinators.size() + 1 == Compounds.size() || Compounds.empty());
  std::string Out;
  for (size_t I = 0; I < Compounds.size(); ++I) {
    if (I > 0)
      Out += Combinators[I - 1] == Combinator::Child ? " > " : " ";
    Out += Compounds[I].str();
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Declaration / StyleRule / Stylesheet
//===----------------------------------------------------------------------===//

std::string Declaration::str() const { return Property + ": " + ValueText; }

const Declaration *StyleRule::find(std::string_view Property) const {
  for (const Declaration &Decl : Declarations)
    if (Decl.Property == Property)
      return &Decl;
  return nullptr;
}

std::string StyleRule::str() const {
  std::string Out;
  for (size_t I = 0; I < Selectors.size(); ++I) {
    if (I > 0)
      Out += ", ";
    Out += Selectors[I].str();
  }
  Out += " {\n";
  for (const Declaration &Decl : Declarations)
    Out += "  " + Decl.str() + ";\n";
  Out += "}";
  return Out;
}

void Stylesheet::append(Stylesheet Other) {
  for (StyleRule &Rule : Other.Rules)
    Rules.push_back(std::move(Rule));
  for (std::string &Diag : Other.Diagnostics)
    Diagnostics.push_back(std::move(Diag));
}

std::string Stylesheet::str() const {
  std::string Out;
  for (const StyleRule &Rule : Rules) {
    Out += Rule.str();
    Out += "\n\n";
  }
  return Out;
}
