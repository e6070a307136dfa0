//===- tests/browser/BrowserTest.cpp - browser runtime tests -------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "browser/Browser.h"

#include <gtest/gtest.h>

using namespace greenweb;

namespace {

/// Shared harness: a chip pinned at max speed plus helpers.
class BrowserFixture : public ::testing::Test {
protected:
  BrowserFixture() : Chip(Sim), B(Sim, Chip) {
    Chip.setConfig(Chip.spec().maxConfig());
  }

  /// Loads a page and settles the load interaction.
  void load(std::string_view Html) {
    ASSERT_NE(B.loadPage(Html), 0u);
    Sim.runUntil(Sim.now() + Duration::seconds(2));
    ASSERT_TRUE(B.ScriptErrors.empty())
        << "script error: " << B.ScriptErrors[0];
  }

  size_t frames() { return B.frameTracker().frames().size(); }

  Simulator Sim;
  AcmpChip Chip;
  Browser B;
};

/// Observer that records callbacks.
struct RecordingObserver : FrameObserver {
  void onInputDispatched(uint64_t Root, const std::string &Type,
                         Element *) override {
    Inputs.push_back({Root, Type});
  }
  void onFrameReady(const FrameRecord &Frame) override {
    Frames.push_back(Frame);
  }
  void onEventQuiescent(uint64_t Root) override {
    Quiescent.push_back(Root);
  }
  std::vector<std::pair<uint64_t, std::string>> Inputs;
  std::vector<FrameRecord> Frames;
  std::vector<uint64_t> Quiescent;
};

} // namespace

TEST_F(BrowserFixture, LoadProducesFirstMeaningfulPaint) {
  load("<div id=a>x</div><script>var loaded = 1;</script>");
  EXPECT_GE(frames(), 1u);
  const FrameRecord &First = B.frameTracker().frames().front();
  ASSERT_FALSE(First.Latencies.empty());
  EXPECT_EQ(First.Latencies[0].Msg.RootEvent, "load");
  // Load latency includes parse + script + pipeline time.
  EXPECT_GT(First.Latencies[0].Latency, Duration::milliseconds(1));
}

TEST_F(BrowserFixture, ScriptsRunAtLoad) {
  load("<script>console.log('boot');</script>");
  ASSERT_EQ(B.interpreter().ConsoleLines.size(), 1u);
  EXPECT_EQ(B.interpreter().ConsoleLines[0], "boot");
}

TEST_F(BrowserFixture, TapWithoutListenerProducesNoFrame) {
  load("<div id=dead></div>");
  size_t Before = frames();
  B.dispatchInput("click", "dead");
  Sim.runUntil(Sim.now() + Duration::milliseconds(200));
  EXPECT_EQ(frames(), Before);
}

TEST_F(BrowserFixture, TapMutatingStyleProducesOneFrame) {
  load(R"raw(
    <div id=b onclick="poke()"></div>
    <script>
      function poke() {
        document.getElementById('b').style.rev = '1';
      }
    </script>
  )raw");
  size_t Before = frames();
  uint64_t Root = B.dispatchInput("click", "b");
  Sim.runUntil(Sim.now() + Duration::milliseconds(200));
  ASSERT_EQ(frames(), Before + 1);
  const FrameRecord &Frame = B.frameTracker().frames().back();
  ASSERT_EQ(Frame.Latencies.size(), 1u);
  EXPECT_EQ(Frame.Latencies[0].Msg.RootId, Root);
}

TEST_F(BrowserFixture, NativeScrollDirtiesWithoutListener) {
  load("<div id=feed></div>");
  size_t Before = frames();
  B.dispatchInput("touchmove", "feed");
  Sim.runUntil(Sim.now() + Duration::milliseconds(200));
  EXPECT_EQ(frames(), Before + 1);
}

TEST_F(BrowserFixture, BatchedInputsShareOneFrame) {
  // Two taps land before the next VSync: the dirty-bit batching of
  // Fig. 8 must attribute one frame to both inputs.
  load(R"raw(
    <div id=b onclick="document.getElementById('b').style.r = now()"></div>
  )raw");
  size_t Before = frames();
  uint64_t R1 = B.dispatchInput("click", "b");
  uint64_t R2 = B.dispatchInput("click", "b");
  Sim.runUntil(Sim.now() + Duration::milliseconds(200));
  ASSERT_EQ(frames(), Before + 1);
  const FrameRecord &Frame = B.frameTracker().frames().back();
  ASSERT_EQ(Frame.Latencies.size(), 2u);
  EXPECT_TRUE(Frame.hasRoot(R1));
  EXPECT_TRUE(Frame.hasRoot(R2));
  // The earlier input waited longer.
  EXPECT_GE(Frame.Latencies[0].Latency, Frame.Latencies[1].Latency);
}

TEST_F(BrowserFixture, FramesAlignToVsync) {
  load(R"raw(
    <div id=b onclick="document.getElementById('b').style.r = now()"></div>
  )raw");
  B.dispatchInput("click", "b");
  Sim.runUntil(Sim.now() + Duration::milliseconds(200));
  const FrameRecord &Frame = B.frameTracker().frames().back();
  // BeginTime sits on a VSync boundary (multiples of ~16.67ms).
  int64_t Interval = B.options().VsyncInterval.nanos();
  EXPECT_EQ(Frame.BeginTime.nanos() % Interval, 0);
}

TEST_F(BrowserFixture, CssTransitionGeneratesFrameSequence) {
  // Fig. 4: a 500ms width transition at 60Hz -> about 30 frames.
  load(R"raw(
    <div id=ex style="width: 100px" ontouchstart="grow()"></div>
    <style>#ex { transition: width 500ms; }</style>
    <script>
      function grow() {
        document.getElementById('ex').style.width = '500px';
      }
    </script>
  )raw");
  size_t Before = frames();
  uint64_t Root = B.dispatchInput("touchstart", "ex");
  Sim.runUntil(Sim.now() + Duration::seconds(2));
  size_t Produced = frames() - Before;
  EXPECT_GE(Produced, 25u);
  EXPECT_LE(Produced, 35u);
  // Every animation frame carries the tap's root id.
  for (size_t I = Before; I < frames(); ++I)
    EXPECT_TRUE(B.frameTracker().frames()[I].hasRoot(Root));
}

TEST_F(BrowserFixture, TransitionEndEventFires) {
  load(R"raw(
    <div id=ex style="width: 1px" ontouchstart="grow()"></div>
    <style>#ex { transition: width 100ms; }</style>
    <script>
      var ended = 0;
      function grow() {
        var e = document.getElementById('ex');
        e.addEventListener('transitionend', function() { ended = ended + 1; });
        e.style.width = '2px';
      }
    </script>
  )raw");
  B.dispatchInput("touchstart", "ex");
  Sim.runUntil(Sim.now() + Duration::seconds(1));
  EXPECT_EQ(B.interpreter().findGlobal("ended")->asNumber(), 1.0);
  EXPECT_GE(B.AnimationEndEvents, 1u);
}

TEST_F(BrowserFixture, RafLoopProducesFramesUntilStopped) {
  load(R"raw(
    <div id=c onclick="start()"></div>
    <script>
      var left = 5;
      function step() {
        invalidate();
        left = left - 1;
        if (left > 0) { requestAnimationFrame(step); }
      }
      function start() { requestAnimationFrame(step); }
    </script>
  )raw");
  size_t Before = frames();
  B.dispatchInput("click", "c");
  Sim.runUntil(Sim.now() + Duration::seconds(1));
  EXPECT_EQ(frames() - Before, 5u);
}

TEST_F(BrowserFixture, QuiescenceFiresAfterWorkDrains) {
  load(R"raw(
    <div id=b onclick="document.getElementById('b').style.r = '1'"></div>
  )raw");
  RecordingObserver Obs;
  B.addFrameObserver(&Obs);
  uint64_t Root = B.dispatchInput("click", "b");
  Sim.runUntil(Sim.now() + Duration::milliseconds(500));
  EXPECT_FALSE(B.hasPendingWorkFor(Root));
  EXPECT_EQ(std::count(Obs.Quiescent.begin(), Obs.Quiescent.end(), Root),
            1);
  B.removeFrameObserver(&Obs);
}

TEST_F(BrowserFixture, SetTimeoutKeepsRootAlive) {
  load(R"raw(
    <div id=b onclick="setTimeout(function() { var x = 1; }, 100)"></div>
  )raw");
  uint64_t Root = B.dispatchInput("click", "b");
  Sim.runUntil(Sim.now() + Duration::milliseconds(50));
  EXPECT_TRUE(B.hasPendingWorkFor(Root));
  Sim.runUntil(Sim.now() + Duration::milliseconds(300));
  EXPECT_FALSE(B.hasPendingWorkFor(Root));
  EXPECT_EQ(B.TimerTasksRun, 1u);
}

TEST_F(BrowserFixture, ScriptedAnimateDrivesFrames) {
  load(R"raw(
    <div id=b onclick="animate(document.getElementById('b'), 200)"></div>
  )raw");
  size_t Before = frames();
  B.dispatchInput("click", "b");
  Sim.runUntil(Sim.now() + Duration::seconds(1));
  // ~200ms at 60Hz.
  EXPECT_GE(frames() - Before, 10u);
  EXPECT_LE(frames() - Before, 15u);
}

TEST_F(BrowserFixture, ScriptErrorsAreContained) {
  // A broken handler must not prevent later interactions.
  load(R"raw(
    <div id=bad onclick="undefinedFn()"></div>
    <div id=good onclick="document.getElementById('good').style.r = '1'">
    </div>
  )raw");
  B.dispatchInput("click", "bad");
  Sim.runUntil(Sim.now() + Duration::milliseconds(100));
  EXPECT_FALSE(B.ScriptErrors.empty());
  size_t Before = frames();
  B.dispatchInput("click", "good");
  Sim.runUntil(Sim.now() + Duration::milliseconds(200));
  EXPECT_EQ(frames(), Before + 1);
}

TEST_F(BrowserFixture, HeavierCallbackTakesLonger) {
  load(R"raw(
    <div id=light onclick="performWork(1000);
         document.getElementById('light').style.r = now()"></div>
    <div id=heavy onclick="performWork(100000);
         document.getElementById('heavy').style.r = now()"></div>
  )raw");
  B.dispatchInput("click", "light");
  Sim.runUntil(Sim.now() + Duration::seconds(1));
  Duration Light = B.frameTracker().frames().back().Latencies[0].Latency;
  B.dispatchInput("click", "heavy");
  Sim.runUntil(Sim.now() + Duration::seconds(1));
  Duration Heavy = B.frameTracker().frames().back().Latencies[0].Latency;
  // The ~34ms extra callback time is partly absorbed by the VSync
  // alignment wait, so require a 10ms gap rather than the full delta.
  EXPECT_GT(Heavy, Light + Duration::milliseconds(10));
}

TEST_F(BrowserFixture, FrameLatencyScalesWithFrequency) {
  // The same interaction at the minimum configuration must take
  // longer end-to-end: the foundation of the runtime's DVFS model.
  load(R"raw(
    <div id=b onclick="performWork(20000);
         document.getElementById('b').style.r = now()"></div>
  )raw");
  B.dispatchInput("click", "b");
  Sim.runUntil(Sim.now() + Duration::seconds(1));
  Duration Fast = B.frameTracker().frames().back().Latencies[0].Latency;

  Chip.setConfig(Chip.spec().minConfig());
  B.dispatchInput("click", "b");
  Sim.runUntil(Sim.now() + Duration::seconds(2));
  Duration Slow = B.frameTracker().frames().back().Latencies[0].Latency;
  EXPECT_GT(Slow, Fast * 2.0);
}

TEST_F(BrowserFixture, InputObserverSeesDispatchBeforeWork) {
  load("<div id=b onclick=\"performWork(1)\"></div>");
  RecordingObserver Obs;
  B.addFrameObserver(&Obs);
  TimePoint Before = Sim.now();
  uint64_t Root = B.dispatchInput("click", "b");
  // Notification is synchronous with dispatch.
  ASSERT_EQ(Obs.Inputs.size(), 1u);
  EXPECT_EQ(Obs.Inputs[0].first, Root);
  EXPECT_EQ(Obs.Inputs[0].second, "click");
  EXPECT_EQ(Sim.now(), Before);
  B.removeFrameObserver(&Obs);
  Sim.runUntil(Sim.now() + Duration::milliseconds(100));
}

TEST_F(BrowserFixture, DispatchByMissingIdTargetsRoot) {
  load("<div id=a></div>");
  EXPECT_NE(B.dispatchInput("click", "no-such-id"), 0u);
  Sim.runUntil(Sim.now() + Duration::milliseconds(100));
}

TEST_F(BrowserFixture, FrameComplexityScalesCost) {
  load(R"raw(
    <div id=b onclick="document.getElementById('b').style.r = now()"></div>
  )raw");
  B.FrameComplexityFn = [](uint64_t) { return 1.0; };
  B.dispatchInput("click", "b");
  Sim.runUntil(Sim.now() + Duration::seconds(1));
  double Cheap = B.frameTracker().frames().back().CyclesCharged;

  B.FrameComplexityFn = [](uint64_t) { return 3.0; };
  B.dispatchInput("click", "b");
  Sim.runUntil(Sim.now() + Duration::seconds(1));
  double Costly = B.frameTracker().frames().back().CyclesCharged;
  EXPECT_GT(Costly, Cheap * 1.5);
}

TEST_F(BrowserFixture, TodoStyleDomGrowth) {
  load(R"raw(
    <div id=list></div>
    <div id=add onclick="addItem()"></div>
    <script>
      var n = 0;
      function addItem() {
        var item = document.getElementById('list').createChild('div');
        item.textContent = 'todo ' + n;
        n = n + 1;
      }
    </script>
  )raw");
  size_t NodesBefore = B.document()->elementCount();
  for (int I = 0; I < 3; ++I) {
    B.dispatchInput("click", "add");
    Sim.runUntil(Sim.now() + Duration::milliseconds(100));
  }
  EXPECT_EQ(B.document()->elementCount(), NodesBefore + 3);
  EXPECT_EQ(B.interpreter().findGlobal("n")->asNumber(), 3.0);
}

TEST_F(BrowserFixture, ScriptDomGrowthRaisesNextFrameByPerNodeCost) {
  load(R"raw(
    <div id=list></div>
    <div id=b onclick="document.getElementById('b').style.r = now()"></div>
  )raw");
  B.FrameComplexityFn = [](uint64_t) { return 1.0; };
  B.dispatchInput("click", "b");
  Sim.runUntil(Sim.now() + Duration::seconds(1));
  double Before = B.frameTracker().frames().back().CyclesCharged;

  // k nodes appear between two otherwise identical frames; the style
  // and layout stages must price every one of them.
  const int K = 7;
  ASSERT_TRUE(B.interpreter().runScript(R"(
    var l = document.getElementById('list');
    for (var i = 0; i < 7; i++) { l.createChild('div'); }
  )"));
  B.dispatchInput("click", "b");
  Sim.runUntil(Sim.now() + Duration::seconds(1));
  double After = B.frameTracker().frames().back().CyclesCharged;

  const RenderCostParams &Costs = B.options().Costs;
  EXPECT_DOUBLE_EQ(After - Before,
                   (Costs.StyleCyclesPerNode + Costs.LayoutCyclesPerNode) *
                       K);
}

TEST(BrowserLifetimeTest, ScriptEnvironmentsFreedWithBrowser) {
  Simulator Sim;
  AcmpChip Chip(Sim);
  std::weak_ptr<js::Environment> Global, Nested;
  {
    Browser B(Sim, Chip);
    ASSERT_NE(B.loadPage(R"raw(
      <div id=b onclick="tick()"></div>
      <script>
        var n = 0;
        function tick() { n = n + 1; }
        function outer() {
          var hits = 0;
          function inner() { hits = hits + 1; return inner; }
          return inner;
        }
        var keep = outer();
      </script>
    )raw"),
              0u);
    Sim.runUntil(Sim.now() + Duration::seconds(1));
    ASSERT_TRUE(B.ScriptErrors.empty());
    Global = B.interpreter().globalEnv();
    js::Value *Keep = B.interpreter().findGlobal("keep");
    ASSERT_NE(Keep, nullptr);
    ASSERT_TRUE(Keep->isFunction());
    Nested = Keep->asFunction()->Closure;
    ASSERT_FALSE(Nested.expired());
  }
  // Function values live in the environments their closures capture;
  // without breaking those cycles both scopes would outlive the browser.
  EXPECT_TRUE(Global.expired());
  EXPECT_TRUE(Nested.expired());
}

TEST_F(BrowserFixture, MsgUidsUniqueAcrossFrames) {
  load(R"raw(
    <div id=b onclick="document.getElementById('b').style.r = now()"></div>
  )raw");
  for (int I = 0; I < 4; ++I) {
    B.dispatchInput("click", "b");
    Sim.runUntil(Sim.now() + Duration::milliseconds(100));
  }
  std::set<uint64_t> Uids;
  for (const FrameRecord &Frame : B.frameTracker().frames())
    for (const MsgLatency &L : Frame.Latencies)
      EXPECT_TRUE(Uids.insert(L.Msg.Uid).second);
}

TEST_F(BrowserFixture, CssAnimationShorthandDrivesFrames) {
  // `style.animation = 'slide 300ms'` produces ~18 frames at 60Hz and
  // fires animationend (the AutoGreen detection hook, Sec. 5).
  load(R"raw(
    <div id=b onclick="startAnim()"></div>
    <script>
      var done = 0;
      function startAnim() {
        var e = document.getElementById('b');
        e.addEventListener('animationend', function() { done = done + 1; });
        e.style.animation = 'slide 300ms';
      }
    </script>
  )raw");
  size_t Before = frames();
  uint64_t Root = B.dispatchInput("click", "b");
  Sim.runUntil(Sim.now() + Duration::seconds(1));
  size_t Produced = frames() - Before;
  EXPECT_GE(Produced, 15u);
  EXPECT_LE(Produced, 22u);
  EXPECT_EQ(B.interpreter().findGlobal("done")->asNumber(), 1.0);
  EXPECT_GE(B.animationsStartedBy(Root), 1u);
  EXPECT_FALSE(B.hasPendingWorkFor(Root));
}

TEST_F(BrowserFixture, CssAnimationIterationsExtendDuration) {
  load(R"raw(
    <div id=b onclick="go()"></div>
    <script>
      function go() {
        document.getElementById('b').style.animation = 'p 100ms 3';
      }
    </script>
  )raw");
  size_t Before = frames();
  B.dispatchInput("click", "b");
  Sim.runUntil(Sim.now() + Duration::seconds(1));
  // ~300ms of animation at 60Hz.
  EXPECT_GE(frames() - Before, 15u);
}
