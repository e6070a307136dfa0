//===- browser/FrameTracker.cpp - Frame latency tracking ---------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "browser/FrameTracker.h"

#include <algorithm>

using namespace greenweb;

bool FrameRecord::hasRoot(uint64_t RootId) const {
  return std::any_of(Latencies.begin(), Latencies.end(),
                     [RootId](const MsgLatency &L) {
                       return L.Msg.RootId == RootId;
                     });
}

Duration FrameRecord::maxLatency() const {
  Duration Max = Duration::zero();
  for (const MsgLatency &L : Latencies)
    Max = std::max(Max, L.Latency);
  return Max;
}

void FrameRecord::worstLatencyByRoot(std::vector<RootLatency> &Out) const {
  Out.clear();
  for (const MsgLatency &L : Latencies) {
    auto It = std::lower_bound(Out.begin(), Out.end(), L.Msg.RootId,
                               [](const RootLatency &R, uint64_t Id) {
                                 return R.RootId < Id;
                               });
    if (It == Out.end() || It->RootId != L.Msg.RootId)
      It = Out.insert(It, {L.Msg.RootId, Duration()});
    It->Worst = std::max(It->Worst, L.Latency);
  }
}

FrameObserver::~FrameObserver() = default;

void FrameObserver::onInputDispatched(uint64_t /*RootId*/,
                                      const std::string & /*Type*/,
                                      Element * /*Target*/) {}

void FrameObserver::onEventQuiescent(uint64_t /*RootId*/) {}

FrameMsg FrameTracker::makeMsg(TimePoint Now, uint64_t RootId,
                               const std::string &RootEvent) {
  FrameMsg Msg;
  Msg.Uid = NextUid++;
  Msg.RootId = RootId == 0 ? Msg.Uid : RootId;
  Msg.StartTs = Now;
  Msg.RootEvent = RootEvent;
  return Msg;
}

void FrameTracker::enqueueDirtyMsg(FrameMsg Msg) {
  Queue.push_back(std::move(Msg));
}

std::vector<FrameMsg> FrameTracker::takeQueuedMsgs() {
  std::vector<FrameMsg> Taken = std::move(Queue);
  Queue.clear();
  return Taken;
}

const FrameRecord &FrameTracker::finishFrame(uint64_t FrameId,
                                             TimePoint BeginTime,
                                             TimePoint ReadyTime,
                                             std::vector<FrameMsg> Msgs,
                                             double CyclesCharged,
                                             Duration FixedCharged) {
  FrameRecord &Record = Frames.emplace_back();
  Record.FrameId = FrameId;
  Record.BeginTime = BeginTime;
  Record.ReadyTime = ReadyTime;
  Record.CyclesCharged = CyclesCharged;
  Record.FixedCharged = FixedCharged;
  Record.Latencies.reserve(Msgs.size());
  for (FrameMsg &Msg : Msgs) {
    MsgLatency &L = Record.Latencies.emplace_back();
    L.Latency = ReadyTime - Msg.StartTs;
    L.Msg = std::move(Msg);
  }
  // takeQueuedMsgs handed the queue's buffer out with the messages;
  // take it back (drained) so the next frame's messages reuse it.
  if (Queue.capacity() == 0) {
    Msgs.clear();
    Queue.swap(Msgs);
  }
  return Record;
}
