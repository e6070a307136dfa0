//===- dom/Dom.cpp - Document Object Model ----------------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dom/Dom.h"

#include <algorithm>
#include <cassert>
#include <new>

using namespace greenweb;

bool greenweb::isUserInputEvent(std::string_view Name) {
  return Name == events::Click || Name == events::Scroll ||
         Name == events::TouchStart || Name == events::TouchEnd ||
         Name == events::TouchMove || Name == events::Load;
}

namespace {

/// Position of \p Name in a name-sorted pair list (lower bound).
template <class List> auto findSlot(List &Pairs, std::string_view Name) {
  return std::lower_bound(
      Pairs.begin(), Pairs.end(), Name,
      [](const auto &Pair, std::string_view Key) { return Pair.first < Key; });
}

template <class List>
std::string_view lookup(const List &Pairs, std::string_view Name) {
  auto It = findSlot(Pairs, Name);
  if (It == Pairs.end() || It->first != Name)
    return {};
  return It->second;
}

/// The value slot for \p Name, inserted empty when absent.
template <class List>
std::string &slotFor(List &Pairs, std::string_view Name) {
  auto It = findSlot(Pairs, Name);
  if (It == Pairs.end() || It->first != Name)
    It = Pairs.insert(It, {std::string(Name), std::string()});
  return It->second;
}

} // namespace

//===----------------------------------------------------------------------===//
// Element
//===----------------------------------------------------------------------===//

Element::Element(Document &Doc, uint64_t NodeId, std::string_view TagName)
    : Doc(Doc), NodeId(NodeId), TagName(TagName) {}

Element::Element(Document &Doc, const Element &Src)
    : Doc(Doc), NodeId(Src.NodeId), TagName(Src.TagName),
      IdValue(Src.IdValue), Classes(Src.Classes), Attributes(Src.Attributes),
      InlineStyle(Src.InlineStyle), Connected(Src.Connected) {}

void Element::setId(std::string NewId) {
  IdValue = std::move(NewId);
  Doc.indexElementId(IdValue, this);
  Doc.bumpStyleVersion();
}

bool Element::hasClass(std::string_view Name) const {
  return std::find(Classes.begin(), Classes.end(), Name) != Classes.end();
}

void Element::addClass(std::string_view Name) {
  if (hasClass(Name))
    return;
  Classes.emplace_back(Name);
  Doc.bumpStyleVersion();
}

void Element::setAttribute(std::string_view Name, std::string Value) {
  slotFor(Attributes, Name) = std::move(Value);
}

std::string_view Element::attribute(std::string_view Name) const {
  return lookup(Attributes, Name);
}

bool Element::hasAttribute(std::string_view Name) const {
  auto It = findSlot(Attributes, Name);
  return It != Attributes.end() && It->first == Name;
}

void Element::setStyleProperty(std::string Property, std::string Value) {
  std::string &Slot = slotFor(InlineStyle, Property);
  if (Slot == Value)
    return;
  std::string Old = std::move(Slot);
  Slot = Value;
  Doc.bumpStyleVersion();
  // The observer gets this call's own strings: it may write inline
  // style again, which can move the slots.
  if (Doc.StyleMutationObserver)
    Doc.StyleMutationObserver(*this, Property, Old, Value);
}

std::string_view Element::styleProperty(std::string_view Property) const {
  return lookup(InlineStyle, Property);
}

Element *Element::appendChild(Element *Child) {
  assert(Child && "appending null child");
  assert(&Child->Doc == &Doc && "child belongs to another document");
  assert(!Child->Parent && Child != Doc.Root && "child already attached");
  Child->Parent = this;
  Children.push_back(Child);
  if (Connected)
    Doc.ElementCount += Child->connectSubtree();
  // Attachment changes ancestor chains, which descendant/child
  // combinators observe.
  Doc.bumpStyleVersion();
  return Child;
}

Element *Element::createChild(std::string_view ChildTag) {
  return appendChild(Doc.createElement(ChildTag));
}

size_t Element::connectSubtree() {
  Connected = true;
  size_t Count = 1;
  for (Element *Child : Children)
    Count += Child->connectSubtree();
  return Count;
}

void Element::forEachInclusiveDescendant(
    const std::function<void(Element &)> &Fn) {
  Fn(*this);
  for (Element *Child : Children)
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

//===----------------------------------------------------------------------===//
// Document
//===----------------------------------------------------------------------===//

namespace {
/// Element slots in a fresh document's first chunk; each further chunk
/// doubles, up to MaxChunkElements. Small pages stay in one or two
/// chunks, large ones waste at most one partly filled chunk.
constexpr size_t FirstChunkElements = 32;
constexpr size_t MaxChunkElements = 256;
} // namespace

template <class... Args> Element *Document::newElement(Args &&...A) {
  if (Chunks.back().Used == Chunks.back().Capacity) {
    size_t Capacity = std::min(2 * Chunks.back().Capacity, MaxChunkElements);
    Element *Slots =
        static_cast<Element *>(::operator new(Capacity * sizeof(Element)));
    Chunks.push_back({Slots, 0, Capacity});
  }
  Chunk &C = Chunks.back();
  Element *E = ::new (static_cast<void *>(C.Slots + C.Used))
      Element(std::forward<Args>(A)...);
  ++C.Used;
  return E;
}

Document::Document(size_t Capacity) {
  Element *Slots =
      static_cast<Element *>(::operator new(Capacity * sizeof(Element)));
  Chunks.push_back({Slots, 0, Capacity});
}

Document::Document() : Document(FirstChunkElements) {
  Root = newElement(*this, NextNodeId++, "html");
  Root->Connected = true;
}

Document::~Document() {
  for (Chunk &C : Chunks) {
    for (size_t I = 0; I < C.Used; ++I)
      C.Slots[I].~Element();
    ::operator delete(C.Slots);
  }
}

Element *Document::cloneSubtree(const Element &Src, Element *Parent) {
  Element *Copy = newElement(*this, Src);
  Copy->Parent = Parent;
  indexElementId(Copy->IdValue, Copy);
  Copy->Children.reserve(Src.Children.size());
  for (const Element *Child : Src.Children)
    Copy->Children.push_back(cloneSubtree(*Child, Copy));
  return Copy;
}

std::unique_ptr<Document> Document::clone() const {
  // One chunk holds the whole copied tree; the copy draws no node ids
  // (every element keeps its original) and no throwaway root.
  std::unique_ptr<Document> Copy(new Document(ElementCount));
  Copy->Root = Copy->cloneSubtree(*Root, nullptr);
  Copy->StyleTexts = StyleTexts;
  Copy->ScriptTexts = ScriptTexts;
  Copy->NextNodeId = NextNodeId;
  Copy->StyleVersion = StyleVersion;
  Copy->ElementCount = ElementCount;
  return Copy;
}

Element *Document::createElement(std::string_view TagName) {
  return newElement(*this, NextNodeId++, TagName);
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
