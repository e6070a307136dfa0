//===- dom/Dom.h - Document Object Model ------------------------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Document Object Model for the simulated browser. Elements carry a
/// tag name, id, classes, attributes, inline style, children, and event
/// listeners; a Document owns every element in chunked storage and
/// provides the lookups the MiniScript bindings and the CSS selector
/// matcher need.
///
/// Event listeners are stored as opaque callables taking an Event; the
/// script layer registers closures over interpreter state, and the
/// browser runtime dispatches input events through here.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_DOM_DOM_H
#define GREENWEB_DOM_DOM_H

#include "support/SmallVector.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace greenweb {

class Element;
class Document;

/// DOM event names the simulated browser dispatches. The paper's mobile
/// scope covers click, scroll, touchstart, touchend, and touchmove
/// (Sec. 3.1), plus the loading pseudo-event and the CSS animation
/// lifecycle events AutoGreen listens for (transitionend/animationend).
namespace events {
inline constexpr const char *Click = "click";
inline constexpr const char *Scroll = "scroll";
inline constexpr const char *TouchStart = "touchstart";
inline constexpr const char *TouchEnd = "touchend";
inline constexpr const char *TouchMove = "touchmove";
inline constexpr const char *Load = "load";
inline constexpr const char *TransitionEnd = "transitionend";
inline constexpr const char *AnimationEnd = "animationend";
} // namespace events

/// True for the five user-triggered mobile input events (plus load) that
/// GreenWeb annotates (Table 3 note: only events directly triggered by
/// mobile user interactions are annotated).
bool isUserInputEvent(std::string_view Name);

/// An event being dispatched to a listener.
struct Event {
  /// Event name, e.g. "click".
  std::string Type;
  /// The element the event fired on.
  Element *Target = nullptr;
  /// Monotone id of the originating user input; 0 for synthetic events.
  uint64_t InputId = 0;
};

/// Listener callable registered on an element for one event type.
using EventListener = std::function<void(const Event &)>;

/// Attribute and inline-style storage: (name, value) pairs kept sorted
/// by name, so iteration is in name order (inline handler binding and
/// the DOM digests rely on it) and a lookup needs no key string.
using AttributeList = SmallVector<std::pair<std::string, std::string>, 1>;
using InlineStyleList = std::vector<std::pair<std::string, std::string>>;

/// A DOM element node. Elements are created and owned by their Document
/// (see Document::createElement) and live as long as it does.
class Element {
public:
  Element(const Element &) = delete;
  Element &operator=(const Element &) = delete;

  Document &document() const { return Doc; }
  uint64_t nodeId() const { return NodeId; }
  const std::string &tagName() const { return TagName; }

  const std::string &id() const { return IdValue; }
  /// Sets the element id and refreshes the document's id index.
  void setId(std::string NewId);

  const SmallVector<std::string, 1> &classes() const { return Classes; }
  bool hasClass(std::string_view Name) const;
  void addClass(std::string_view Name);

  /// Generic attributes (everything except id/class/style, which have
  /// dedicated storage).
  void setAttribute(std::string_view Name, std::string Value);
  /// Returns the attribute value or an empty string.
  std::string_view attribute(std::string_view Name) const;
  bool hasAttribute(std::string_view Name) const;
  const AttributeList &attributes() const { return Attributes; }

  /// Inline style ("style=..." / element.style.X writes). Setting a
  /// property notifies the document's style-mutation observer, which is
  /// how CSS transitions get triggered.
  void setStyleProperty(std::string Property, std::string Value);
  /// Returns the inline style value or an empty string.
  std::string_view styleProperty(std::string_view Property) const;
  const InlineStyleList &inlineStyle() const { return InlineStyle; }

  /// --- Tree structure ---
  Element *parent() const { return Parent; }
  const SmallVector<Element *, 2> &children() const { return Children; }
  /// Appends \p Child, an unattached element of this document, and
  /// returns it. Attaching under the document's tree counts the child's
  /// whole subtree into Document::elementCount().
  Element *appendChild(Element *Child);
  /// Creates and appends a child with the given tag.
  Element *createChild(std::string_view TagName);
  /// Visits this element and all descendants pre-order.
  void forEachInclusiveDescendant(const std::function<void(Element &)> &Fn);

  /// --- Events ---
  void addEventListener(std::string Type, EventListener Listener);
  /// True if at least one listener is registered for \p Type.
  bool hasEventListener(std::string_view Type) const;
  /// Event types with at least one listener, sorted (deterministic).
  std::vector<std::string> listenedEventTypes() const;
  /// Dispatches \p E to every listener of its type on this element.
  /// Returns the number of listeners invoked. No capture/bubble phases:
  /// the simulated apps attach listeners directly to targets.
  size_t dispatchEvent(const Event &E);

private:
  friend class Document;
  Element(Document &Doc, uint64_t NodeId, std::string_view TagName);
  /// Copy of \p Src's node id, tag, id, classes, attributes, inline
  /// style and connection state into \p Doc (Document::clone's
  /// contract); no tree links, no listeners.
  Element(Document &Doc, const Element &Src);
  ~Element() = default;
  /// Marks this subtree as reachable from the document root; returns
  /// its element count.
  size_t connectSubtree();

  Document &Doc;
  uint64_t NodeId;
  std::string TagName;
  std::string IdValue;
  SmallVector<std::string, 1> Classes;
  AttributeList Attributes;
  InlineStyleList InlineStyle;
  Element *Parent = nullptr;
  /// True once reachable from the document root (the DOM never detaches).
  bool Connected = false;
  SmallVector<Element *, 2> Children;
  std::map<std::string, std::vector<EventListener>> Listeners;
};

/// Owner of a DOM tree plus the document-level indexes.
///
/// Ownership: the Document allocates every one of its elements in
/// chunked storage and frees them all when it is destroyed. Elements
/// never move and the DOM never detaches, so an Element* handed out by
/// createElement, createChild or a lookup stays valid for the
/// document's lifetime, whether or not the element is attached.
class Document {
public:
  Document();
  ~Document();

  Document(const Document &) = delete;
  Document &operator=(const Document &) = delete;

  /// The <html>-equivalent root element.
  Element &root() { return *Root; }
  const Element &root() const { return *Root; }

  /// Creates an unattached element owned by this document.
  Element *createElement(std::string_view TagName);

  /// Deep copy for warm-start runs: tree structure, tags, ids, classes,
  /// attributes, inline styles, style/script texts, the id index, and
  /// the NextNodeId/StyleVersion counters are all reproduced exactly —
  /// every element keeps its original node id, so id-keyed state
  /// recorded against this document (style-match snapshots, annotation
  /// fault streams) applies verbatim to the copy. Event listeners and
  /// the style-mutation observer are NOT copied; a fresh page load
  /// rebinds its own. Unattached elements are not copied.
  std::unique_ptr<Document> clone() const;

  /// Id lookup; returns nullptr when absent.
  Element *getElementById(std::string_view Id);

  /// All elements with the given class, pre-order.
  std::vector<Element *> getElementsByClass(std::string_view Class);

  /// All elements with the given tag name, pre-order.
  std::vector<Element *> getElementsByTag(std::string_view Tag);

  /// Visits every element in the tree pre-order.
  void forEachElement(const std::function<void(Element &)> &Fn);

  /// Total number of elements in the tree. Maintained on attachment, so
  /// reading it is O(1); the browser prices style and layout by it at
  /// every pipeline stage.
  size_t elementCount() const { return ElementCount; }

  /// Raw <style> block texts collected by the HTML parser, in document
  /// order. The CSS engine parses them into a stylesheet.
  std::vector<std::string> StyleTexts;
  /// Raw <script> block texts collected by the HTML parser.
  std::vector<std::string> ScriptTexts;

  /// Observer invoked when any element's inline style property changes:
  /// (element, property, old value, new value). The browser's transition
  /// driver hooks this.
  std::function<void(Element &, const std::string &, const std::string &,
                     const std::string &)>
      StyleMutationObserver;

  /// Monotone counter bumped on every mutation that can change selector
  /// matching anywhere in the tree (id/class/inline-style writes and
  /// subtree attachment). The style resolver stamps its per-element
  /// matched-rules cache with this version, so a stale entry is never
  /// served after a mutation.
  uint64_t styleVersion() const { return StyleVersion; }
  void bumpStyleVersion() { ++StyleVersion; }

  /// --- Internal (used by Element) ---
  void indexElementId(const std::string &Id, Element *E);

private:
  friend class Element;

  /// One block of element slots; Used slots hold constructed elements.
  struct Chunk {
    Element *Slots;
    size_t Used;
    size_t Capacity;
  };

  /// A document with no elements yet whose first chunk holds
  /// \p Capacity elements (clone sizes it to the copied tree).
  explicit Document(size_t Capacity);
  /// Constructs an element in the next free slot.
  template <class... Args> Element *newElement(Args &&...A);
  /// Copies \p Src's subtree into this document under \p Parent.
  Element *cloneSubtree(const Element &Src, Element *Parent);

  std::vector<Chunk> Chunks;
  uint64_t NextNodeId = 1;
  uint64_t StyleVersion = 1;
  size_t ElementCount = 1;
  Element *Root = nullptr;
  std::map<std::string, Element *, std::less<>> IdIndex;
};

} // namespace greenweb

#endif // GREENWEB_DOM_DOM_H
