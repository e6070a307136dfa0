//===- browser/FrameTracker.h - Frame latency tracking ----------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Frame latency tracking, implementing the algorithm of Fig. 8 in the
/// paper. Each input event carries a Msg with a unique id and a start
/// timestamp; callbacks that dirty the page push their Msg onto a queue
/// augmenting the dirty bit; at VSync all queued Msgs attach to the new
/// frame; when the frame-ready signal arrives, per-input latencies are
/// computed from the propagated metadata.
///
/// Animation ticks (rAF re-runs, CSS transition steps) produce fresh
/// Msgs whose RootId is the originating user input, which is how the
/// runtime forms the transitive closure of frames associated with a
/// "continuous" event (Sec. 6.4).
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_BROWSER_FRAMETRACKER_H
#define GREENWEB_BROWSER_FRAMETRACKER_H

#include "support/Time.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace greenweb {

/// Metadata attached to an input event or animation tick (Fig. 8's Msg).
struct FrameMsg {
  /// Unique id of this message.
  uint64_t Uid = 0;
  /// Id of the originating user input (equals Uid for direct inputs).
  uint64_t RootId = 0;
  /// When the tracked work began: input arrival for direct inputs, the
  /// BeginFrame instant for animation ticks.
  TimePoint StartTs;
  /// Event name that started the root interaction (diagnostics).
  std::string RootEvent;
};

/// Latency of one message once its frame displayed.
struct MsgLatency {
  FrameMsg Msg;
  Duration Latency;
};

/// The worst latency one root input saw within a frame.
struct RootLatency {
  uint64_t RootId = 0;
  Duration Worst;
};

/// A completed frame with its attributed inputs.
struct FrameRecord {
  /// Monotone frame number.
  uint64_t FrameId = 0;
  /// BeginFrame (VSync) instant that started the frame's pipeline work.
  TimePoint BeginTime;
  /// When the frame-ready signal reached the browser process.
  TimePoint ReadyTime;
  /// Latency per contributing message (Fig. 8 Part III).
  std::vector<MsgLatency> Latencies;
  /// Total effective cycles charged across pipeline stages (diagnostic;
  /// the runtime itself only ever sees latencies, as on real hardware).
  double CyclesCharged = 0.0;
  /// Total frequency-independent time charged (diagnostic).
  Duration FixedCharged;

  /// True if any contributing message has the given root input.
  bool hasRoot(uint64_t RootId) const;
  /// Worst (max) latency across contributing messages.
  Duration maxLatency() const;
  /// Each contributing root once, with its worst latency in this frame,
  /// in ascending root id order. \p Out is cleared first, so a consumer
  /// that keeps one buffer across frames does not allocate per frame.
  void worstLatencyByRoot(std::vector<RootLatency> &Out) const;
};

class Element;

/// Observer interface for browser activity: input dispatch, frame
/// completion, and event quiescence. The GreenWeb runtime and the
/// experiment metric collectors implement this.
class FrameObserver {
public:
  virtual ~FrameObserver();

  /// A user input event entered the browser process. Fires before any of
  /// the event's work executes, so a governor can set the chip
  /// configuration proactively.
  virtual void onInputDispatched(uint64_t RootId, const std::string &Type,
                                 Element *Target);

  /// A frame reached the display.
  virtual void onFrameReady(const FrameRecord &Frame) = 0;

  /// All work transitively generated by input \p RootId has drained: no
  /// queued messages, pending callbacks, animation callbacks, active
  /// transitions, or in-flight frames remain for it (Sec. 6.4's "until
  /// no message is generated").
  virtual void onEventQuiescent(uint64_t RootId);
};

/// Implements the message queue + attribution bookkeeping.
class FrameTracker {
public:
  /// Creates a new message. \p RootId == 0 means "this is a root input"
  /// and the new Uid becomes its own root.
  FrameMsg makeMsg(TimePoint Now, uint64_t RootId,
                   const std::string &RootEvent);

  /// Part II of Fig. 8: a callback touched the dirty bit; queue its Msg.
  void enqueueDirtyMsg(FrameMsg Msg);

  /// Takes all queued messages for the frame starting now.
  std::vector<FrameMsg> takeQueuedMsgs();

  /// True if messages are waiting for a frame.
  bool hasQueuedMsgs() const { return !Queue.empty(); }

  /// Part III of Fig. 8: computes latencies for a ready frame. The
  /// record is built once, in place in frames(); the reference stays
  /// valid until the next finishFrame or clearFrames.
  const FrameRecord &finishFrame(uint64_t FrameId, TimePoint BeginTime,
                          TimePoint ReadyTime, std::vector<FrameMsg> Msgs,
                          double CyclesCharged, Duration FixedCharged);

  /// All completed frames, in completion order.
  const std::vector<FrameRecord> &frames() const { return Frames; }

  /// Drops recorded frames (between experiment phases).
  void clearFrames() { Frames.clear(); }

  uint64_t nextUid() const { return NextUid; }

private:
  uint64_t NextUid = 1;
  std::vector<FrameMsg> Queue;
  std::vector<FrameRecord> Frames;
};

} // namespace greenweb

#endif // GREENWEB_BROWSER_FRAMETRACKER_H
