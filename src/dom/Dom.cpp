//===- dom/Dom.cpp - Document Object Model ----------------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dom/Dom.h"

#include <algorithm>
#include <cassert>

using namespace greenweb;

bool greenweb::isUserInputEvent(std::string_view Name) {
  return Name == events::Click || Name == events::Scroll ||
         Name == events::TouchStart || Name == events::TouchEnd ||
         Name == events::TouchMove || Name == events::Load;
}

//===----------------------------------------------------------------------===//
// Element
//===----------------------------------------------------------------------===//

Element::Element(Document &Doc, std::string TagName)
    : Doc(Doc), NodeId(Doc.takeNodeId()), TagName(std::move(TagName)) {}

void Element::setId(std::string NewId) {
  IdValue = std::move(NewId);
  Doc.indexElementId(IdValue, this);
  Doc.bumpStyleVersion();
}

bool Element::hasClass(std::string_view Name) const {
  return std::find(Classes.begin(), Classes.end(), Name) != Classes.end();
}

void Element::addClass(std::string Name) {
  if (hasClass(Name))
    return;
  Classes.push_back(std::move(Name));
  Doc.bumpStyleVersion();
}

void Element::setAttribute(std::string Name, std::string Value) {
  Attributes[std::move(Name)] = std::move(Value);
}

std::string_view Element::attribute(std::string_view Name) const {
  auto It = Attributes.find(std::string(Name));
  if (It == Attributes.end())
    return {};
  return It->second;
}

bool Element::hasAttribute(std::string_view Name) const {
  return Attributes.count(std::string(Name)) != 0;
}

void Element::setStyleProperty(std::string Property, std::string Value) {
  std::string &Slot = InlineStyle[Property];
  std::string Old = Slot;
  if (Old == Value)
    return;
  Slot = Value;
  Doc.bumpStyleVersion();
  if (Doc.StyleMutationObserver)
    Doc.StyleMutationObserver(*this, Property, Old, Slot);
}

std::string_view Element::styleProperty(std::string_view Property) const {
  auto It = InlineStyle.find(std::string(Property));
  if (It == InlineStyle.end())
    return {};
  return It->second;
}

Element *Element::appendChild(std::unique_ptr<Element> Child) {
  assert(Child && "appending null child");
  assert(!Child->Parent && "child already attached");
  Child->Parent = this;
  Children.push_back(std::move(Child));
  if (Connected)
    Doc.ElementCount += Children.back()->connectSubtree();
  // Attachment changes ancestor chains, which descendant/child
  // combinators observe.
  Doc.bumpStyleVersion();
  return Children.back().get();
}

Element *Element::createChild(std::string ChildTag) {
  return appendChild(Doc.createElement(std::move(ChildTag)));
}

size_t Element::connectSubtree() {
  Connected = true;
  size_t Count = 1;
  for (const auto &Child : Children)
    Count += Child->connectSubtree();
  return Count;
}

void Element::forEachInclusiveDescendant(
    const std::function<void(Element &)> &Fn) {
  Fn(*this);
  for (const auto &Child : Children)
    Child->forEachInclusiveDescendant(Fn);
}

void Element::addEventListener(std::string Type, EventListener Listener) {
  assert(Listener && "registering null listener");
  Listeners[std::move(Type)].push_back(std::move(Listener));
}

bool Element::hasEventListener(std::string_view Type) const {
  auto It = Listeners.find(std::string(Type));
  return It != Listeners.end() && !It->second.empty();
}

std::vector<std::string> Element::listenedEventTypes() const {
  std::vector<std::string> Types;
  for (const auto &[Type, List] : Listeners)
    if (!List.empty())
      Types.push_back(Type);
  return Types;
}

size_t Element::dispatchEvent(const Event &E) {
  auto It = Listeners.find(E.Type);
  if (It == Listeners.end())
    return 0;
  // Copy: a listener may register further listeners while running.
  std::vector<EventListener> ToRun = It->second;
  for (const EventListener &Listener : ToRun)
    Listener(E);
  return ToRun.size();
}

std::unique_ptr<Element> Element::cloneInto(Document &NewDoc) const {
  // The constructor draws a fresh node id; overwrite it with the
  // original so the copy is id-identical (Document::clone restores
  // NextNodeId afterwards).
  auto Copy = std::make_unique<Element>(NewDoc, TagName);
  Copy->NodeId = NodeId;
  Copy->IdValue = IdValue;
  Copy->Classes = Classes;
  Copy->Attributes = Attributes;
  Copy->InlineStyle = InlineStyle;
  Copy->Connected = Connected;
  NewDoc.indexElementId(Copy->IdValue, Copy.get());
  Copy->Children.reserve(Children.size());
  for (const auto &Child : Children) {
    std::unique_ptr<Element> ChildCopy = Child->cloneInto(NewDoc);
    ChildCopy->Parent = Copy.get();
    Copy->Children.push_back(std::move(ChildCopy));
  }
  return Copy;
}

//===----------------------------------------------------------------------===//
// Document
//===----------------------------------------------------------------------===//

Document::Document() {
  Root = std::make_unique<Element>(*this, "html");
  Root->Connected = true;
}

std::unique_ptr<Document> Document::clone() const {
  auto Copy = std::make_unique<Document>();
  // Replace the constructor-made root; id indexing happens inside
  // cloneInto, and the counters are restored below so the temporary
  // node-id draws during cloning leave no trace.
  Copy->Root = Root->cloneInto(*Copy);
  Copy->StyleTexts = StyleTexts;
  Copy->ScriptTexts = ScriptTexts;
  Copy->NextNodeId = NextNodeId;
  Copy->StyleVersion = StyleVersion;
  Copy->ElementCount = ElementCount;
  return Copy;
}

std::unique_ptr<Element> Document::createElement(std::string TagName) {
  return std::make_unique<Element>(*this, std::move(TagName));
}

Element *Document::getElementById(std::string_view Id) {
  auto It = IdIndex.find(Id);
  return It == IdIndex.end() ? nullptr : It->second;
}

std::vector<Element *> Document::getElementsByClass(std::string_view Class) {
  std::vector<Element *> Result;
  forEachElement([&](Element &E) {
    if (E.hasClass(Class))
      Result.push_back(&E);
  });
  return Result;
}

std::vector<Element *> Document::getElementsByTag(std::string_view Tag) {
  std::vector<Element *> Result;
  forEachElement([&](Element &E) {
    if (E.tagName() == Tag)
      Result.push_back(&E);
  });
  return Result;
}

void Document::forEachElement(const std::function<void(Element &)> &Fn) {
  Root->forEachInclusiveDescendant(Fn);
}

void Document::indexElementId(const std::string &Id, Element *E) {
  if (!Id.empty())
    IdIndex[Id] = E;
}
