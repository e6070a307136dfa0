//===- browser/Browser.cpp - Simulated web browser ------------------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "browser/Browser.h"

#include "browser/PageSnapshot.h"
#include "css/CssParser.h"
#include "faults/FaultInjector.h"
#include "html/HtmlParser.h"
#include "profiling/Profiler.h"
#include "support/StringUtils.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>

using namespace greenweb;

//===----------------------------------------------------------------------===//
// MiniScript host objects
//===----------------------------------------------------------------------===//

namespace {

/// `element.style` wrapper: property writes feed the DOM inline style,
/// which triggers the browser's style-mutation hook (dirty bit and CSS
/// transitions).
class StyleHost : public js::HostObject {
public:
  StyleHost(Browser &B, Element *E) : B(B), E(E) {}

  std::string hostClassName() const override { return "CSSStyle"; }

  js::Value getProperty(js::Interpreter &,
                        const std::string &Name) override {
    return js::Value::string(
        std::string(E->styleProperty(cssPropertyName(Name))));
  }

  bool setProperty(js::Interpreter &, const std::string &Name,
                   const js::Value &V) override {
    E->setStyleProperty(cssPropertyName(Name), V.toDisplayString());
    return true;
  }

private:
  /// Converts camelCase script names to kebab-case CSS names
  /// (backgroundColor -> background-color).
  static std::string cssPropertyName(const std::string &Name) {
    std::string Out;
    for (char C : Name) {
      if (C >= 'A' && C <= 'Z') {
        Out += '-';
        Out += char(C - 'A' + 'a');
        continue;
      }
      Out += C;
    }
    return Out;
  }

  Browser &B;
  Element *E;
};

class ElementHost : public js::HostObject {
public:
  ElementHost(Browser &B, Element *E) : B(B), E(E) {}

  std::string hostClassName() const override { return "Element"; }
  const void *hostTypeId() const override { return &TypeTag; }

  /// Manual downcast; returns nullptr when \p H is not an ElementHost.
  static ElementHost *from(js::HostObject *H) {
    if (!H || H->hostTypeId() != &TypeTag)
      return nullptr;
    return static_cast<ElementHost *>(H);
  }

  Element *element() const { return E; }

  js::Value getProperty(js::Interpreter &Interp,
                        const std::string &Name) override;
  bool setProperty(js::Interpreter &Interp, const std::string &Name,
                   const js::Value &V) override;

private:
  static const char TypeTag;

  Browser &B;
  Element *E;
};

const char ElementHost::TypeTag = 0;

class DocumentHost : public js::HostObject {
public:
  explicit DocumentHost(Browser &B) : B(B) {}

  std::string hostClassName() const override { return "Document"; }

  js::Value getProperty(js::Interpreter &,
                        const std::string &Name) override {
    if (Name == "getElementById")
      return js::makeNativeFunction(
          "getElementById",
          [&Bro = B](js::Interpreter &I, const std::vector<js::Value> &Args) {
            if (Args.empty() || !Args[0].isString())
              return I.raiseError("getElementById expects a string id");
            Element *E = Bro.document()->getElementById(Args[0].asString());
            if (!E)
              return js::Value::null();
            return js::Value::host(std::make_shared<ElementHost>(Bro, E));
          });
    if (Name == "nodeCount")
      return js::Value::number(double(B.document()->elementCount()));
    return js::Value::null();
  }

private:
  Browser &B;
};

// Native closures returned from getProperty can outlive the receiver
// host wrapper (the interpreter drops the receiver Value once the
// property read completes), so they capture the Browser and Element —
// both of which outlive script execution — never the host `this`.
js::Value ElementHost::getProperty(js::Interpreter &Interp,
                                   const std::string &Name) {
  if (Name == "style")
    return js::Value::host(std::make_shared<StyleHost>(B, E));
  if (Name == "id")
    return js::Value::string(E->id());
  if (Name == "tagName")
    return js::Value::string(E->tagName());
  if (Name == "textContent")
    return js::Value::string(std::string(E->attribute("text")));
  if (Name == "addEventListener")
    return js::makeNativeFunction(
        "addEventListener",
        [&Bro = B, E = E](js::Interpreter &I,
                          const std::vector<js::Value> &Args) {
          if (Args.size() < 2 || !Args[0].isString() ||
              !Args[1].isFunction())
            return I.raiseError(
                "addEventListener expects (type, function)");
          js::Value Callback = Args[1];
          E->addEventListener(
              Args[0].asString(), [&Bro, Callback](const Event &) {
                bool Ok = true;
                Bro.interpreter().callFunction(Callback, {}, &Ok);
                if (!Ok) {
                  Bro.ScriptErrors.push_back(
                      Bro.interpreter().lastError());
                  Bro.interpreter().clearError();
                }
              });
          return js::Value::null();
        });
  if (Name == "setAttribute")
    return js::makeNativeFunction(
        "setAttribute",
        [E = E](js::Interpreter &I, const std::vector<js::Value> &Args) {
          if (Args.size() < 2 || !Args[0].isString())
            return I.raiseError("setAttribute expects (name, value)");
          E->setAttribute(Args[0].asString(), Args[1].toDisplayString());
          return js::Value::null();
        });
  if (Name == "getAttribute")
    return js::makeNativeFunction(
        "getAttribute",
        [E = E](js::Interpreter &I, const std::vector<js::Value> &Args) {
          if (Args.empty() || !Args[0].isString())
            return I.raiseError("getAttribute expects a name");
          return js::Value::string(
              std::string(E->attribute(Args[0].asString())));
        });
  if (Name == "createChild")
    return js::makeNativeFunction(
        "createChild",
        [&Bro = B, E = E](js::Interpreter &I,
                          const std::vector<js::Value> &Args) {
          if (Args.empty() || !Args[0].isString())
            return I.raiseError("createChild expects a tag name");
          Element *Child = E->createChild(Args[0].asString());
          // Structural DOM changes invalidate the page.
          Child->setStyleProperty("display", "block");
          return js::Value::host(
              std::make_shared<ElementHost>(Bro, Child));
        });
  if (Name == "addClass")
    return js::makeNativeFunction(
        "addClass",
        [E = E](js::Interpreter &I, const std::vector<js::Value> &Args) {
          if (Args.empty() || !Args[0].isString())
            return I.raiseError("addClass expects a class name");
          E->addClass(Args[0].asString());
          return js::Value::null();
        });
  (void)Interp;
  return js::Value::null();
}

bool ElementHost::setProperty(js::Interpreter &, const std::string &Name,
                              const js::Value &V) {
  if (Name == "textContent") {
    E->setAttribute("text", V.toDisplayString());
    // Text updates need a repaint; route through the style hook by
    // poking a synthetic property so the dirty bit is set consistently.
    E->setStyleProperty("-gw-text-rev",
                        formatString("%llu", static_cast<unsigned long long>(
                                                 B.frameTracker().nextUid())));
    return true;
  }
  if (Name == "id") {
    E->setId(V.toDisplayString());
    return true;
  }
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Browser: construction and page loading
//===----------------------------------------------------------------------===//

Browser::Browser(Simulator &Sim, AcmpChip &Chip, BrowserOptions OptionsIn)
    : Sim(Sim), Chip(Chip), Options(OptionsIn),
      BrowserRng(Options.RngSeed), RateController(Options.InputRate) {
  BrowserProc = std::make_unique<SimThread>(Sim, Chip, "CrBrowserMain", 0);
  Main = std::make_unique<SimThread>(Sim, Chip, "CrRendererMain", 1);
  Compositor = std::make_unique<SimThread>(Sim, Chip, "Compositor", 2);
}

Browser::~Browser() { *Alive = false; }

void Browser::installBindings() {
  Interp.defineGlobal("document",
                      js::Value::host(std::make_shared<DocumentHost>(*this)));

  js::Value Raf = js::makeNativeFunction(
      "requestAnimationFrame",
      [this](js::Interpreter &I, const std::vector<js::Value> &Args) {
        if (Args.empty() || !Args[0].isFunction())
          return I.raiseError("requestAnimationFrame expects a function");
        requestAnimationFrame(Args[0]);
        return js::Value::null();
      });
  Interp.defineGlobal("requestAnimationFrame", Raf);

  Interp.defineGlobal(
      "setTimeout",
      js::makeNativeFunction(
          "setTimeout",
          [this](js::Interpreter &I, const std::vector<js::Value> &Args) {
            if (Args.size() < 2 || !Args[0].isFunction() ||
                !Args[1].isNumber())
              return I.raiseError("setTimeout expects (function, ms)");
            setScriptTimeout(Args[0],
                             Duration::fromMillis(Args[1].asNumber()));
            return js::Value::null();
          }));

  // performWork(kilocycles): explicit modeled computation. This is how
  // application models express their callback weight.
  Interp.defineGlobal(
      "performWork",
      js::makeNativeFunction(
          "performWork",
          [](js::Interpreter &I, const std::vector<js::Value> &Args) {
            if (Args.empty() || !Args[0].isNumber())
              return I.raiseError("performWork expects kilocycles");
            I.addExplicitWorkCycles(Args[0].asNumber() * 1000.0);
            return js::Value::null();
          }));

  // animate(element, durationMs): jQuery-style scripted animation.
  Interp.defineGlobal(
      "animate",
      js::makeNativeFunction(
          "animate",
          [this](js::Interpreter &I, const std::vector<js::Value> &Args) {
            if (Args.size() < 2 || !Args[0].isHost() || !Args[1].isNumber())
              return I.raiseError("animate expects (element, ms)");
            ElementHost *Host = ElementHost::from(Args[0].asHost().get());
            if (!Host)
              return I.raiseError("animate expects a DOM element");
            startScriptAnimation(Host->element(),
                                 Duration::fromMillis(Args[1].asNumber()));
            return js::Value::null();
          }));

  // invalidate(): explicitly request a repaint (canvas-style drawing).
  Interp.defineGlobal(
      "invalidate",
      js::makeNativeFunction(
          "invalidate", [this](js::Interpreter &,
                               const std::vector<js::Value> &) {
            ScriptDirtied = true;
            return js::Value::null();
          }));

  // random(): deterministic uniform [0,1) from the browser's seeded RNG.
  Interp.defineGlobal(
      "random", js::makeNativeFunction(
                    "random", [this](js::Interpreter &,
                                     const std::vector<js::Value> &) {
                      return js::Value::number(BrowserRng.uniform());
                    }));

  // now(): current virtual time in milliseconds.
  Interp.defineGlobal(
      "now", js::makeNativeFunction(
                 "now", [this](js::Interpreter &,
                               const std::vector<js::Value> &) {
                   return js::Value::number(Sim.now().millis());
                 }));
}

void Browser::bindInlineHandlers() {
  Doc->forEachElement([this](Element &E) {
    for (const auto &[Name, Source] : E.attributes()) {
      if (!startsWith(Name, "on") || Name.size() <= 2)
        continue;
      std::string Type = Name.substr(2);
      // Handler attributes are statement lists (function-body
      // semantics); compile once, run per dispatch.
      std::shared_ptr<js::Program> Handler = Interp.compile(Source);
      if (!Handler) {
        ScriptErrors.push_back(Interp.lastError());
        Interp.clearError();
        continue;
      }
      E.addEventListener(Type, [this, Handler](const Event &) {
        if (!Interp.runProgram(*Handler)) {
          ScriptErrors.push_back(Interp.lastError());
          Interp.clearError();
        }
      });
    }
  });
}

uint64_t Browser::loadPage(std::string_view Html) {
  assert(!PageLoaded && "browser already has a page");

  html::ParseResult Parsed = html::parseHtml(Html);
  Doc = std::move(Parsed.Doc);
  if (!Doc)
    return 0;

  auto NewSheet = std::make_shared<css::Stylesheet>();
  size_t CssBytes = 0;
  for (const std::string &StyleText : Doc->StyleTexts) {
    CssBytes += StyleText.size();
    NewSheet->append(css::parseStylesheet(StyleText));
  }
  Sheet = std::move(NewSheet);
  Resolver = std::make_unique<css::StyleResolver>(*Sheet);

  size_t JsBytes = 0;
  for (const std::string &Script : Doc->ScriptTexts)
    JsBytes += Script.size();
  return finishLoad(Html.size(), CssBytes, JsBytes);
}

uint64_t Browser::loadPage(const PageSnapshot &Snapshot) {
  assert(!PageLoaded && "browser already has a page");
  GW_PROF_SCOPE("browser.load_snapshot");
  if (!Snapshot.Proto)
    return 0;

  Doc = Snapshot.Proto->clone();
  Sheet = Snapshot.Sheet;
  Resolver = std::make_unique<css::StyleResolver>(*Sheet);
  Resolver->shareIndex(Snapshot.Index);
  Resolver->warmCache(Snapshot.StyleCache);
  return finishLoad(Snapshot.HtmlBytes, Snapshot.CssBytes,
                    Snapshot.JsBytes);
}

uint64_t Browser::finishLoad(size_t HtmlBytes, size_t CssBytes,
                             size_t JsBytes) {
  Doc->StyleMutationObserver = [this](Element &E, const std::string &Prop,
                                      const std::string &Old,
                                      const std::string &New) {
    onStyleMutated(E, Prop, Old, New);
  };

  installBindings();
  bindInlineHandlers();
  PageLoaded = true;
  if (OnPageParsed)
    OnPageParsed();

  // The L interaction: browser-process navigation task, IPC, HTML/CSS
  // parse task, script-execution task, then the first meaningful paint.
  FrameMsg Msg = Tracker.makeMsg(Sim.now(), 0, events::Load);
  retainRoot(Msg.RootId);
  // Open the root span before notifying observers so governor decision
  // spans parent under the input that triggered them.
  int64_t PrevSpanCtx = beginRootSpan(Msg.RootId, events::Load);
  for (FrameObserver *O : Observers)
    O->onInputDispatched(Msg.RootId, events::Load, &Doc->root());

  const RenderCostParams &Costs = Options.Costs;
  SimTask Nav;
  Nav.Label = "navigate";
  Nav.Cost = {Duration::zero(), Costs.InputDispatchCycles};
  Nav.OnComplete = [this, Msg, HtmlBytes, CssBytes, JsBytes] {
    const RenderCostParams &C = Options.Costs;
    scheduleGuarded(C.IpcLatency, [this, Msg, HtmlBytes, CssBytes,
                                   JsBytes] {
      const RenderCostParams &CC = Options.Costs;
      SimTask Parse;
      Parse.Label = "parse-html";
      Parse.Cost = {CC.LoadFixedTime,
                    double(HtmlBytes) * CC.ParseCyclesPerByte +
                        double(CssBytes + JsBytes) *
                            CC.StyleSheetCyclesPerByte};
      Parse.OnComplete = [this, Msg] {
        SimTask Script;
        Script.Label = "script:load";
        Script.ComputeCost = [this, Msg]() -> TaskCost {
          CurrentRootId = Msg.RootId;
          CurrentRootEvent = Msg.RootEvent;
          Interp.resetCostCounters();
          ScriptDirtied = false;
          for (const std::string &Source : Doc->ScriptTexts) {
            if (!Interp.runScript(Source)) {
              ScriptErrors.push_back(Interp.lastError());
              Interp.clearError();
            }
          }
          // Fire `load` listeners on the root.
          Doc->root().dispatchEvent({events::Load, &Doc->root(), Msg.Uid});
          if (Interp.hadError()) {
            ScriptErrors.push_back(Interp.lastError());
            Interp.clearError();
          }
          TaskCost Cost = takeScriptCost();
          // The first meaningful paint is attributed to the load input
          // regardless of whether scripts dirtied anything.
          markDirty(Msg);
          ScriptDirtied = false;
          CurrentRootId = 0;
          CurrentRootEvent.clear();
          return Cost;
        };
        Script.OnComplete = [this, Root = Msg.RootId] { releaseRoot(Root); };
        Main->post(std::move(Script));
      };
      Main->post(std::move(Parse));
    });
  };
  BrowserProc->post(std::move(Nav));
  if (SpanTracer *Tr = tracer())
    Tr->setCurrent(PrevSpanCtx);
  return Msg.RootId;
}

//===----------------------------------------------------------------------===//
// Input dispatch
//===----------------------------------------------------------------------===//

uint64_t Browser::dispatchInput(const std::string &Type,
                                const std::string &TargetId) {
  if (!PageLoaded)
    return 0;
  Element *Target =
      TargetId.empty() ? &Doc->root() : Doc->getElementById(TargetId);
  if (!Target)
    Target = &Doc->root();
  return dispatchInput(Type, Target);
}

uint64_t Browser::dispatchInput(const std::string &Type, Element *Target) {
  if (!PageLoaded)
    return 0;
  GW_PROF_SCOPE("browser.dispatch_input");
  assert(Target && "dispatching input without a target");

  // eBrowser-style rate control: arrivals inside the spacing window are
  // dropped before any frame work exists — no message, no observers, no
  // tasks. The replayer still gets a root id (the last admitted one) so
  // scripted interaction streams stay oblivious.
  if (!RateController.admit(Type, Sim.now())) {
    if (Telemetry *T = Sim.telemetry(); T && T->enabled())
      T->metrics().counter("browser.input_coalesced").add(1);
    return RateController.lastAdmittedRoot(Type);
  }

  FrameMsg Msg = Tracker.makeMsg(Sim.now(), 0, Type);
  RateController.noteAdmitted(Type, Msg.RootId);
  retainRoot(Msg.RootId);
  int64_t PrevSpanCtx = beginRootSpan(Msg.RootId, Type);
  for (FrameObserver *O : Observers)
    O->onInputDispatched(Msg.RootId, Type, Target);

  SimTask Input;
  Input.Label = "input:" + Type;
  Input.Cost = {Duration::zero(), Options.Costs.InputDispatchCycles};
  Input.OnComplete = [this, Msg, Type, Target] {
    scheduleGuarded(Options.Costs.IpcLatency, [this, Msg, Type, Target] {
      dispatchToRenderer(Msg, Type, Target);
    });
  };
  BrowserProc->post(std::move(Input));
  if (SpanTracer *Tr = tracer())
    Tr->setCurrent(PrevSpanCtx);
  return Msg.RootId;
}

void Browser::dispatchToRenderer(FrameMsg Msg, std::string Type,
                                 Element *Target) {
  SimTask Callback;
  Callback.Label = "callback:" + Type;
  Callback.ComputeCost = [this, Msg, Type, Target]() -> TaskCost {
    runInputCallback(Msg, Type, Target);
    TaskCost Cost = takeScriptCost();
    // Injected cost spikes (GC pause, cold cache, rogue script) scale
    // the whole callback, frequency-dependent and fixed parts alike.
    if (FaultInjector *F = Sim.faultInjector()) {
      double Scale = F->callbackCostScale();
      if (Scale != 1.0) {
        Cost.Cycles *= Scale;
        Cost.FixedTime = Cost.FixedTime * Scale;
      }
    }
    return Cost;
  };
  Callback.OnComplete = [this, Root = Msg.RootId] { releaseRoot(Root); };
  Main->post(std::move(Callback));
}

void Browser::runInputCallback(const FrameMsg &Msg, const std::string &Type,
                               Element *Target) {
  CurrentRootId = Msg.RootId;
  CurrentRootEvent = Msg.RootEvent;
  Interp.resetCostCounters();
  ScriptDirtied = false;

  Target->dispatchEvent({Type, Target, Msg.Uid});
  if (Interp.hadError()) {
    ScriptErrors.push_back(Interp.lastError());
    Interp.clearError();
  }

  // Native scrolling dirties the page even without listeners; taps only
  // produce frames when script mutated something.
  bool NativeScroll =
      Type == events::Scroll || Type == events::TouchMove;
  if (ScriptDirtied || NativeScroll)
    markDirty(Msg);

  ScriptDirtied = false;
  CurrentRootId = 0;
  CurrentRootEvent.clear();
}

//===----------------------------------------------------------------------===//
// Dirty bit, VSync, and the frame pipeline
//===----------------------------------------------------------------------===//

void Browser::markDirty(FrameMsg Msg) {
  retainRoot(Msg.RootId);
  Tracker.enqueueDirtyMsg(std::move(Msg));
  scheduleVsyncIfNeeded();
}

void Browser::scheduleVsyncIfNeeded() {
  if (VsyncScheduled || FrameInFlight)
    return;
  if (!Tracker.hasQueuedMsgs() && !animationsWantFrame())
    return;
  // Align to the next VSync boundary strictly after now.
  int64_t Interval = Options.VsyncInterval.nanos();
  int64_t Now = Sim.now().nanos();
  int64_t NextTick = (Now / Interval + 1) * Interval;
  // An injected display fault can land the tick late. Keyed by display
  // slot, so the jitter is bounded below one interval and never pushes
  // the tick into the next slot.
  if (FaultInjector *F = Sim.faultInjector())
    NextTick += F->vsyncJitter(NextTick / Interval).nanos();
  VsyncScheduled = true;
  scheduleGuardedAt(TimePoint::fromNanos(NextTick), [this] { onVsync(); });
}

void Browser::onVsync() {
  GW_PROF_SCOPE("browser.vsync");
  VsyncScheduled = false;
  if (FrameInFlight)
    return;
  if (!Tracker.hasQueuedMsgs() && !animationsWantFrame())
    return;
  // Checked only on work-bearing ticks; the decision is a function of
  // the display slot, so idle time and frame pacing cannot shift which
  // ticks are faulty.
  if (FaultInjector *F = Sim.faultInjector();
      F && F->dropVsyncTick(Sim.now().nanos() /
                            Options.VsyncInterval.nanos())) {
    scheduleVsyncIfNeeded();
    return;
  }
  beginFrame(Sim.now());
}

void Browser::beginFrame(TimePoint BeginTime) {
  GW_PROF_SCOPE("browser.begin_frame");
  assert(!FrameInFlight && "frame already in flight");
  FrameInFlight = true;
  FrameBeginTime = BeginTime;
  FrameMsgs.clear();
  FrameCycles = 0.0;
  FrameFixed = Duration::zero();
  FrameComplexity =
      FrameComplexityFn ? FrameComplexityFn(NextFrameId) : 1.0;
  assert(FrameComplexity > 0.0 && "frame complexity must be positive");

  SimTask Animate;
  Animate.Label = "animate";
  Animate.ComputeCost = [this]() -> TaskCost {
    TaskCost Cost;
    Cost.Cycles = 20e3; // BeginFrame bookkeeping.
    TimePoint Now = Sim.now();

    // 1. CSS transitions and scripted animations tick once per frame.
    std::vector<ActiveAnimation> Ended;
    for (auto It = Animations.begin(); It != Animations.end();) {
      ActiveAnimation &A = *It;
      FrameMsg Tick = Tracker.makeMsg(Now, A.RootId, A.RootEvent);
      retainRoot(Tick.RootId);
      Tracker.enqueueDirtyMsg(std::move(Tick));
      Cost.Cycles += 30e3; // per-animation interpolation work
      if (Now >= A.EndTime) {
        Ended.push_back(A);
        It = Animations.erase(It);
        continue;
      }
      ++It;
    }
    for (const ActiveAnimation &A : Ended)
      dispatchAnimationEnd(A);

    // 2. rAF callbacks registered since the last frame.
    std::vector<RafEntry> Taken = std::move(RafQueue);
    RafQueue.clear();
    for (RafEntry &Entry : Taken) {
      TaskCost ScriptCost =
          runScriptWithRoot(Entry.Callback, Entry.RootId, Entry.RootEvent);
      Cost.FixedTime += ScriptCost.FixedTime;
      Cost.Cycles += ScriptCost.Cycles;
      if (Entry.RootId != 0)
        releaseRoot(Entry.RootId);
    }
    return Cost;
  };
  Animate.OnComplete = [this] {
    FrameMsgs = Tracker.takeQueuedMsgs();
    if (FrameMsgs.empty()) {
      // Nothing visible changed (e.g. rAF ran but did not draw). The
      // frame id will be reused by the next VSync that does draw, so
      // detach this attempt's spans from it before closing them.
      if (SpanTracer *Tr = tracer()) {
        Tr->setFrame(Tr->current(), 0); // this animate task's span
        if (FrameSpan != 0) {
          Tr->setFrame(FrameSpan, 0);
          Tr->end(FrameSpan);
        }
      }
      FrameSpan = 0;
      FrameInFlight = false;
      scheduleVsyncIfNeeded();
      return;
    }
    recordStage("animate");
    runPipelineStage(0);
  };
  StageMark = BeginTime;
  SpanTracer *Tr = tracer();
  int64_t PrevSpanCtx = 0;
  if (Tr) {
    FrameSpan = Tr->begin(
        formatString("frame %llu", static_cast<unsigned long long>(
                                       NextFrameId)),
        "frames", 0, int64_t(NextFrameId), /*Parent=*/0);
    PrevSpanCtx = Tr->setCurrent(FrameSpan);
  }
  Main->post(std::move(Animate));
  if (Tr)
    Tr->setCurrent(PrevSpanCtx);
}

void Browser::recordStage(const char *Stage) {
  Telemetry *T = Sim.telemetry();
  if (!T || !T->enabled())
    return;
  TimePoint Now = Sim.now();
  T->recordFrameStage(
      {int64_t(NextFrameId), Stage, (Now - StageMark).millis()});
  StageMark = Now;
}

SpanTracer *Browser::tracer() const {
  Telemetry *T = Sim.telemetry();
  return T && T->enabled() ? &T->spans() : nullptr;
}

int64_t Browser::beginRootSpan(uint64_t RootId, const std::string &Type) {
  SpanTracer *Tr = tracer();
  if (!Tr)
    return 0;
  int64_t Span = Tr->begin("input:" + Type, "inputs", int64_t(RootId), 0,
                           /*Parent=*/0);
  RootSpans[RootId] = Span;
  return Tr->setCurrent(Span);
}

void Browser::runPipelineStage(unsigned StageIndex) {
  GW_PROF_SCOPE("browser.pipeline_stage");
  const RenderCostParams &Costs = Options.Costs;
  // Read at every stage, not once per frame: a script task may run on
  // the main thread between two stages and grow the DOM.
  double Nodes = double(Doc->elementCount());

  TaskCost Cost;
  const char *Label = "";
  switch (StageIndex) {
  case 0:
    Label = "style";
    Cost = {Costs.StyleFixedTime,
            Costs.StyleCyclesPerNode * Nodes * FrameComplexity};
    break;
  case 1:
    Label = "layout";
    Cost = {Costs.LayoutFixedTime,
            Costs.LayoutCyclesPerNode * Nodes * FrameComplexity};
    break;
  case 2:
    Label = "paint";
    Cost = {Costs.PaintFixedTime, Costs.PaintBaseCycles * FrameComplexity};
    break;
  default:
    assert(false && "unknown pipeline stage");
    return;
  }

  FrameCycles += Cost.Cycles;
  FrameFixed += Cost.FixedTime;

  SimTask Stage;
  Stage.Label = Label;
  Stage.Cost = Cost;
  if (StageIndex < 2) {
    Stage.OnComplete = [this, StageIndex, Label] {
      recordStage(Label);
      runPipelineStage(StageIndex + 1);
    };
    Main->post(std::move(Stage));
    return;
  }
  // After paint, hand off to the compositor thread.
  Stage.OnComplete = [this] {
    recordStage("paint");
    TaskCost CompositeCost = {Options.Costs.CompositeFixedTime,
                              Options.Costs.CompositeCycles};
    FrameCycles += CompositeCost.Cycles;
    FrameFixed += CompositeCost.FixedTime;
    SimTask Composite;
    Composite.Label = "composite";
    Composite.Cost = CompositeCost;
    Composite.OnComplete = [this] {
      recordStage("composite");
      // Frame-ready signal travels back to the browser process.
      scheduleGuarded(Options.Costs.IpcLatency, [this] { finishFrame(); });
    };
    Compositor->postDelayed(std::move(Composite),
                            Options.Costs.PostTaskLatency);
  };
  Main->post(std::move(Stage));
}

void Browser::finishFrame() {
  recordStage("present");
  // One closing record with the frame's full production latency
  // (BeginFrame to display). The per-stage records above cover the
  // breakdown; this record is the per-frame series the online anomaly
  // detectors track (see telemetry/AnomalyDetector.h).
  if (Telemetry *T = Sim.telemetry(); T && T->enabled())
    T->recordFrameStage({int64_t(NextFrameId), "total",
                         (Sim.now() - FrameBeginTime).millis()});
  if (FrameSpan != 0) {
    if (SpanTracer *Tr = tracer())
      Tr->end(FrameSpan);
    FrameSpan = 0;
  }
  const FrameRecord &Record =
      Tracker.finishFrame(NextFrameId++, FrameBeginTime, Sim.now(),
                          std::move(FrameMsgs), FrameCycles, FrameFixed);
  FrameMsgs.clear();
  FrameInFlight = false;

  if (Telemetry *T = Sim.telemetry(); T && T->enabled()) {
    T->metrics().counter("browser.frames").add(1);
    T->metrics()
        .histogram("browser.frame_latency_ms")
        .observe(Record.maxLatency().millis());
  }

  for (FrameObserver *O : Observers)
    O->onFrameReady(Record);
  for (const MsgLatency &L : Record.Latencies)
    releaseRoot(L.Msg.RootId);
  scheduleVsyncIfNeeded();
}

//===----------------------------------------------------------------------===//
// Script-visible services
//===----------------------------------------------------------------------===//

void Browser::requestAnimationFrame(js::Value Callback) {
  RafEntry Entry;
  Entry.Callback = std::move(Callback);
  Entry.RootId = CurrentRootId;
  Entry.RootEvent = CurrentRootEvent;
  if (Entry.RootId != 0) {
    retainRoot(Entry.RootId);
    ++RafRegistered[Entry.RootId];
  }
  RafQueue.push_back(std::move(Entry));
  scheduleVsyncIfNeeded();
}

void Browser::setScriptTimeout(js::Value Callback, Duration Delay) {
  uint64_t Root = CurrentRootId;
  std::string RootEvent = CurrentRootEvent;
  if (Root != 0)
    retainRoot(Root);
  SimTask Timer;
  Timer.Label = "timer";
  Timer.ComputeCost = [this, Callback, Root, RootEvent]() -> TaskCost {
    TaskCost Cost = runScriptWithRoot(Callback, Root, RootEvent);
    return Cost;
  };
  Timer.OnComplete = [this, Root] {
    ++TimerTasksRun;
    if (Root != 0)
      releaseRoot(Root);
  };
  Main->postDelayed(std::move(Timer), Delay);
}

void Browser::startScriptAnimation(Element *Target, Duration AnimDuration) {
  assert(Target && "animation without a target");
  ActiveAnimation A;
  A.Target = Target;
  A.Property = "<animate>";
  A.RootId = CurrentRootId;
  A.RootEvent = CurrentRootEvent;
  A.EndTime = Sim.now() + AnimDuration;
  A.Kind = AnimKind::Scripted;
  if (A.RootId != 0) {
    retainRoot(A.RootId);
    ++AnimationsStarted[A.RootId];
  }
  Animations.push_back(std::move(A));
  scheduleVsyncIfNeeded();
}

uint64_t Browser::animationsStartedBy(uint64_t RootId) const {
  auto It = AnimationsStarted.find(RootId);
  return It == AnimationsStarted.end() ? 0 : It->second;
}

uint64_t Browser::rafRegisteredBy(uint64_t RootId) const {
  auto It = RafRegistered.find(RootId);
  return It == RafRegistered.end() ? 0 : It->second;
}

TaskCost Browser::runScriptWithRoot(const js::Value &Fn, uint64_t RootId,
                                    const std::string &RootEvent) {
  uint64_t SavedRoot = CurrentRootId;
  std::string SavedEvent = CurrentRootEvent;
  bool SavedDirty = ScriptDirtied;
  CurrentRootId = RootId;
  CurrentRootEvent = RootEvent;
  Interp.resetCostCounters();
  ScriptDirtied = false;

  bool Ok = true;
  Interp.callFunction(Fn, {}, &Ok);
  if (!Ok) {
    ScriptErrors.push_back(Interp.lastError());
    Interp.clearError();
  }
  TaskCost Cost = takeScriptCost();

  if (ScriptDirtied) {
    FrameMsg Msg = Tracker.makeMsg(Sim.now(), RootId, RootEvent);
    retainRoot(Msg.RootId);
    Tracker.enqueueDirtyMsg(std::move(Msg));
    scheduleVsyncIfNeeded();
  }

  CurrentRootId = SavedRoot;
  CurrentRootEvent = SavedEvent;
  ScriptDirtied = SavedDirty;
  return Cost;
}

TaskCost Browser::takeScriptCost() {
  const RenderCostParams &Costs = Options.Costs;
  TaskCost Cost;
  Cost.FixedTime = Costs.CallbackFixedTime;
  Cost.Cycles = Costs.CallbackBaseCycles +
                double(Interp.opsExecuted()) * Costs.CyclesPerScriptOp +
                Interp.explicitWorkCycles();
  Interp.resetCostCounters();
  return Cost;
}

void Browser::dispatchAnimationEnd(const ActiveAnimation &A) {
  // Fire transitionend / animationend as a main-thread task attributed
  // to the animation's root; listeners count as post-frame work.
  std::string Type = A.Kind == AnimKind::CssTransition
                         ? events::TransitionEnd
                         : events::AnimationEnd;
  uint64_t Root = A.RootId;
  std::string RootEvent = A.RootEvent;
  Element *Target = A.Target;
  if (Root != 0)
    retainRoot(Root);
  SimTask Task;
  Task.Label = Type;
  Task.ComputeCost = [this, Type, Target, Root, RootEvent]() -> TaskCost {
    uint64_t SavedRoot = CurrentRootId;
    std::string SavedEvent = CurrentRootEvent;
    CurrentRootId = Root;
    CurrentRootEvent = RootEvent;
    Interp.resetCostCounters();
    Target->dispatchEvent({Type, Target, 0});
    if (Interp.hadError()) {
      ScriptErrors.push_back(Interp.lastError());
      Interp.clearError();
    }
    TaskCost Cost = takeScriptCost();
    CurrentRootId = SavedRoot;
    CurrentRootEvent = SavedEvent;
    return Cost;
  };
  Task.OnComplete = [this, Root] {
    ++AnimationEndEvents;
    if (Root != 0)
      releaseRoot(Root);
  };
  Main->post(std::move(Task));
  // The animation itself no longer holds its root.
  if (Root != 0)
    releaseRoot(Root);
}

//===----------------------------------------------------------------------===//
// Style mutation hook and CSS transitions
//===----------------------------------------------------------------------===//

void Browser::onStyleMutated(Element &E, const std::string &Property,
                             const std::string &OldValue,
                             const std::string &NewValue) {
  if (!PageLoaded)
    return;
  (void)OldValue;
  ScriptDirtied = true;

  // Writing `style.animation = 'slide 2s'` starts a CSS animation; the
  // keyframes' visuals are irrelevant to the frame schedule, so only
  // the name and timing matter (AutoGreen's animationend detector also
  // hangs off this path).
  if (Property == "animation") {
    std::optional<css::AnimationSpec> Spec =
        css::parseAnimationValue(std::string_view(NewValue));
    if (Spec) {
      ActiveAnimation A;
      A.Target = &E;
      A.Property = Spec->Name;
      A.RootId = CurrentRootId;
      A.RootEvent = CurrentRootEvent;
      // `infinite` runs until navigation in real browsers; one hour of
      // virtual time is beyond any experiment here.
      Duration Total = Spec->Iterations == 0
                           ? Duration::seconds(3600)
                           : Spec->AnimationDuration *
                                 int64_t(Spec->Iterations);
      A.EndTime = Sim.now() + Spec->Delay + Total;
      A.Kind = AnimKind::CssAnimation;
      if (A.RootId != 0) {
        retainRoot(A.RootId);
        ++AnimationsStarted[A.RootId];
      }
      Animations.push_back(std::move(A));
      scheduleVsyncIfNeeded();
    }
    return;
  }

  // Does a `transition:` spec cover this property on this element?
  for (const css::TransitionSpec &Spec : Resolver->transitionsFor(E)) {
    if (!Spec.appliesTo(Property))
      continue;
    // Restart semantics: an in-flight transition on the same
    // (element, property) is replaced.
    for (auto It = Animations.begin(); It != Animations.end(); ++It) {
      if (It->Target == &E && It->Property == Property) {
        if (It->RootId != 0)
          releaseRoot(It->RootId);
        Animations.erase(It);
        break;
      }
    }
    ActiveAnimation A;
    A.Target = &E;
    A.Property = Property;
    A.RootId = CurrentRootId;
    A.RootEvent = CurrentRootEvent;
    A.EndTime = Sim.now() + Spec.Delay + Spec.TransitionDuration;
    A.Kind = AnimKind::CssTransition;
    if (A.RootId != 0) {
      retainRoot(A.RootId);
      ++AnimationsStarted[A.RootId];
    }
    Animations.push_back(std::move(A));
    scheduleVsyncIfNeeded();
    break;
  }
}

//===----------------------------------------------------------------------===//
// Observers and root accounting
//===----------------------------------------------------------------------===//

void Browser::addFrameObserver(FrameObserver *Observer) {
  assert(Observer && "null observer");
  Observers.push_back(Observer);
}

void Browser::removeFrameObserver(FrameObserver *Observer) {
  Observers.erase(
      std::remove(Observers.begin(), Observers.end(), Observer),
      Observers.end());
}

bool Browser::hasPendingWorkFor(uint64_t RootId) const {
  return RootActivity.count(RootId) != 0;
}

void Browser::retainRoot(uint64_t RootId) {
  assert(RootId != 0 && "retaining the null root");
  ++RootActivity[RootId];
}

void Browser::releaseRoot(uint64_t RootId) {
  if (RootId == 0)
    return;
  auto It = RootActivity.find(RootId);
  assert(It != RootActivity.end() && "release without retain");
  if (--It->second > 0)
    return;
  RootActivity.erase(It);
  if (auto SIt = RootSpans.find(RootId); SIt != RootSpans.end()) {
    if (SpanTracer *Tr = tracer())
      Tr->end(SIt->second);
    RootSpans.erase(SIt);
  }
  for (FrameObserver *O : Observers)
    O->onEventQuiescent(RootId);
}
