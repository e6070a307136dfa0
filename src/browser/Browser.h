//===- browser/Browser.h - Simulated web browser ------------------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated multi-process web browser. Mirrors the execution model
/// of Fig. 7 in the paper: a browser process receives input events and
/// sends them over IPC to the renderer, whose main thread runs the
/// callback / style / layout / paint stages and whose compositor thread
/// runs composite (with a GPU-bound fixed portion); frames are generated
/// on VSync with dirty-bit batching, and per-input frame latencies are
/// tracked via propagated Msg metadata (Fig. 8).
///
/// Pages are real HTML + CSS + MiniScript sources: loadPage() parses
/// them, binds inline `on<event>` handler attributes, exposes the DOM to
/// scripts, and replays the load interaction through the pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_BROWSER_BROWSER_H
#define GREENWEB_BROWSER_BROWSER_H

#include "browser/BrowserConfig.h"
#include "browser/EventRateController.h"
#include "browser/FrameTracker.h"
#include "css/CssAst.h"
#include "css/StyleResolver.h"
#include "dom/Dom.h"
#include "hw/AcmpChip.h"
#include "js/JsInterp.h"
#include "sim/SimThread.h"
#include "sim/Simulator.h"
#include "support/Rng.h"

#include <map>
#include <memory>
#include <optional>

namespace greenweb {

struct PageScripts;
struct PageSnapshot;

/// The simulated browser runtime.
class Browser {
public:
  Browser(Simulator &Sim, AcmpChip &Chip, BrowserOptions Options = {});
  ~Browser();

  Browser(const Browser &) = delete;
  Browser &operator=(const Browser &) = delete;

  /// --- Page lifecycle ---

  /// Parses and loads a page. Binding and parsing happen immediately;
  /// the load's simulated work (HTML parse, script execution, first
  /// meaningful paint) is scheduled through the pipeline as the L
  /// interaction. Returns the load event's root input id, or 0 when the
  /// page failed to parse at all.
  uint64_t loadPage(std::string_view Html);

  /// Warm-start load: restores a previously captured snapshot (cloned
  /// document, shared stylesheet/rule index, adopted style cache)
  /// instead of parsing, then replays the same load interaction.
  /// Behaviorally identical to loadPage(html) for the snapshot's
  /// source — including all simulated costs and telemetry — but skips
  /// the host-side parse and cold style-matching work. The snapshot
  /// must outlive this browser's page.
  uint64_t loadPage(const PageSnapshot &Snapshot);

  /// The loaded document (nullptr before loadPage).
  Document *document() { return Doc.get(); }
  /// The page stylesheet (parsed from all <style> blocks, in order;
  /// shared read-only with the snapshot on warm-start loads).
  const css::Stylesheet &stylesheet() const { return *Sheet; }
  /// Style resolver over the page stylesheet.
  css::StyleResolver &styleResolver() { return *Resolver; }
  /// The page's script interpreter.
  js::Interpreter &interpreter() { return Interp; }

  /// --- Input dispatch (driven by the interaction replayer) ---

  /// Dispatches a user input event of \p Type to the element with id
  /// \p TargetId (empty id targets the document root). Returns the
  /// event's root input id (0 if the page is not loaded).
  uint64_t dispatchInput(const std::string &Type,
                         const std::string &TargetId);
  uint64_t dispatchInput(const std::string &Type, Element *Target);

  /// --- Observation ---

  void addFrameObserver(FrameObserver *Observer);
  void removeFrameObserver(FrameObserver *Observer);
  FrameTracker &frameTracker() { return Tracker; }
  const FrameTracker &frameTracker() const { return Tracker; }

  /// Per-frame render-complexity multiplier (style/layout/paint cycle
  /// scale). Workload models install this to create frame-cost variance
  /// and complexity surges. Default: always 1.0.
  std::function<double(uint64_t FrameId)> FrameComplexityFn;

  /// Invoked by loadPage() after the page is parsed and handlers are
  /// bound but before the load interaction dispatches. The experiment
  /// driver populates the annotation registry here so the load event
  /// itself is already covered.
  std::function<void()> OnPageParsed;

  /// True while any work transitively caused by \p RootId is pending.
  bool hasPendingWorkFor(uint64_t RootId) const;

  /// Schedules \p Fn on the simulator; the event becomes a no-op if
  /// this browser is destroyed first (fresh browsers share a Simulator
  /// across page loads in the experiment harness). The guard wraps \p Fn
  /// directly, so a small closure stays inline in the event queue.
  template <class F> void scheduleGuarded(Duration Delay, F &&Fn) {
    Sim.schedule(Delay, guarded(std::forward<F>(Fn)));
  }
  template <class F> void scheduleGuardedAt(TimePoint When, F &&Fn) {
    Sim.scheduleAt(When, guarded(std::forward<F>(Fn)));
  }

  /// --- Infrastructure accessors ---
  Simulator &simulator() { return Sim; }
  AcmpChip &chip() { return Chip; }
  SimThread &mainThread() { return *Main; }
  SimThread &compositorThread() { return *Compositor; }
  SimThread &browserThread() { return *BrowserProc; }
  const BrowserOptions &options() const { return Options; }
  Rng &rng() { return BrowserRng; }
  /// Input admission control (see BrowserOptions::InputRate).
  const EventRateController &rateController() const { return RateController; }

  /// Script errors surfaced from callbacks (page errors are contained,
  /// as in a real browser; experiments assert this stays empty).
  std::vector<std::string> ScriptErrors;

  /// Count of timer (setTimeout) tasks that ran; with animation-end
  /// dispatches these are the page's non-user-triggered events, the
  /// denominator of Table 3's annotation percentage.
  uint64_t TimerTasksRun = 0;
  /// Count of transitionend/animationend dispatch tasks that ran.
  uint64_t AnimationEndEvents = 0;

  /// --- Script binding support (used by the MiniScript host objects) ---

  /// Registers a rAF callback; it runs at the next BeginFrame. The
  /// current root input id is captured for frame attribution.
  void requestAnimationFrame(js::Value Callback);
  /// setTimeout: runs \p Callback on the main thread after \p Delay.
  void setScriptTimeout(js::Value Callback, Duration Delay);
  /// jQuery-style animate(): drives a scripted animation on \p Target
  /// for \p AnimDuration, producing a frame per VSync.
  void startScriptAnimation(Element *Target, Duration AnimDuration);
  /// Number of rAF callbacks awaiting the next frame (AutoGreen's
  /// instrumentation checks this).
  size_t pendingAnimationCallbacks() const { return RafQueue.size(); }

  /// Per-root count of CSS transitions/scripted animations started while
  /// that root's script was running (AutoGreen reads this during
  /// profiling).
  uint64_t animationsStartedBy(uint64_t RootId) const;

  /// Per-root count of requestAnimationFrame registrations (AutoGreen's
  /// rAF-overload detection).
  uint64_t rafRegisteredBy(uint64_t RootId) const;

private:
  template <class F> auto guarded(F &&Fn) {
    return [Token = Alive, Fn = std::forward<F>(Fn)]() mutable {
      if (*Token)
        Fn();
    };
  }

  /// What started an active animation; decides which end event fires.
  enum class AnimKind {
    CssTransition, ///< `transition:` property change -> transitionend
    CssAnimation,  ///< `animation:` shorthand        -> animationend
    Scripted,      ///< animate() builtin             -> animationend
  };

  struct ActiveAnimation {
    Element *Target = nullptr;
    /// Transitioned property, @keyframes name, or "<animate>".
    std::string Property;
    uint64_t RootId = 0;
    std::string RootEvent;
    TimePoint EndTime;
    AnimKind Kind = AnimKind::CssTransition;
  };

  struct RafEntry {
    js::Value Callback;
    uint64_t RootId = 0;
    std::string RootEvent;
  };

  /// --- Root activity accounting (quiescence detection, Sec. 6.4) ---
  void retainRoot(uint64_t RootId);
  void releaseRoot(uint64_t RootId);

  /// --- Pipeline steps ---
  void dispatchAnimationEnd(const ActiveAnimation &A);
  void dispatchToRenderer(FrameMsg Msg, std::string Type, Element *Target);
  /// Runs JS listeners for an input event; returns whether the page was
  /// dirtied. Invoked at the callback task's simulated start.
  void runInputCallback(const FrameMsg &Msg, const std::string &Type,
                        Element *Target);
  /// Marks the page dirty on behalf of \p Msg (Fig. 8 Part II).
  void markDirty(FrameMsg Msg);
  void scheduleVsyncIfNeeded();
  void onVsync();
  void beginFrame(TimePoint BeginTime);
  void runPipelineStage(unsigned StageIndex);
  void finishFrame();
  /// Telemetry: logs the in-flight frame's pipeline interval since the
  /// previous stage boundary and advances the boundary.
  void recordStage(const char *Stage);

  /// The attached hub's span tracer, or nullptr when telemetry is off.
  SpanTracer *tracer() const;
  /// Opens the lifetime span of root \p RootId ("input:<type>" on the
  /// "inputs" track) and makes it the ambient context; returns the
  /// previous context for the caller to restore after dispatch.
  int64_t beginRootSpan(uint64_t RootId, const std::string &Type);

  /// Invokes a script function with root attribution and error capture.
  /// Returns the cost accumulated by the interpreter during the call.
  TaskCost runScriptWithRoot(const js::Value &Fn, uint64_t RootId,
                             const std::string &RootEvent);
  /// Converts interpreter counters into a callback-stage TaskCost.
  TaskCost takeScriptCost();

  /// Shared tail of both loadPage overloads: wires the mutation
  /// observer, binds handlers, and schedules the load interaction with
  /// the given simulated source sizes.
  uint64_t finishLoad(size_t HtmlBytes, size_t CssBytes, size_t JsBytes);

  void installBindings();
  void bindInlineHandlers();
  void onStyleMutated(Element &E, const std::string &Property,
                      const std::string &OldValue,
                      const std::string &NewValue);

  bool animationsWantFrame() const {
    return !RafQueue.empty() || !Animations.empty();
  }

  Simulator &Sim;
  AcmpChip &Chip;
  BrowserOptions Options;
  Rng BrowserRng;

  std::unique_ptr<SimThread> BrowserProc;
  std::unique_ptr<SimThread> Main;
  std::unique_ptr<SimThread> Compositor;

  std::unique_ptr<Document> Doc;
  std::shared_ptr<const css::Stylesheet> Sheet;
  std::unique_ptr<css::StyleResolver> Resolver;
  /// The page's compiled scripts and handlers (the snapshot's on a warm
  /// restore). Declared before Interp: closures point into these
  /// programs, so they outlive the interpreter.
  std::shared_ptr<const PageScripts> Scripts;
  js::Interpreter Interp;

  FrameTracker Tracker;
  std::vector<FrameObserver *> Observers;
  EventRateController RateController;

  /// Outstanding work units per root input id.
  std::map<uint64_t, int> RootActivity;
  /// Open lifetime span per root (closed at quiescence).
  std::map<uint64_t, int64_t> RootSpans;
  /// Span covering the in-flight frame's production window.
  int64_t FrameSpan = 0;
  std::map<uint64_t, uint64_t> AnimationsStarted;
  std::map<uint64_t, uint64_t> RafRegistered;

  std::vector<RafEntry> RafQueue;
  std::vector<ActiveAnimation> Animations;

  /// In-flight frame state.
  bool FrameInFlight = false;
  bool VsyncScheduled = false;
  uint64_t NextFrameId = 1;
  TimePoint FrameBeginTime;
  /// Boundary of the last completed pipeline stage (telemetry).
  TimePoint StageMark;
  std::vector<FrameMsg> FrameMsgs;
  double FrameCycles = 0.0;
  Duration FrameFixed;
  double FrameComplexity = 1.0;

  uint64_t CurrentRootId = 0;
  std::string CurrentRootEvent;
  /// Set when script (or a native default action) invalidated the page
  /// during the currently-executing callback.
  bool ScriptDirtied = false;

  bool PageLoaded = false;

  /// Lifetime token for scheduled simulator events.
  std::shared_ptr<bool> Alive = std::make_shared<bool>(true);
};

} // namespace greenweb

#endif // GREENWEB_BROWSER_BROWSER_H
