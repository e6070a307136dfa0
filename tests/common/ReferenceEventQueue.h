//===- tests/common/ReferenceEventQueue.h - binary-heap oracle --*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The binary-heap event queue the calendar queue in sim/Simulator
/// replaced, kept as a reference oracle for the differential tests and
/// as the baseline leg of bench_throughput. It implements the same
/// (When, Seq) total order: a min-heap of trivially-copyable
/// (When, Seq, Slot) entries, callbacks in a slot-indexed side table,
/// and lazy cancellation (a cancelled entry stays queued as a stub and
/// is dropped when it surfaces). Handles address their slot by
/// (slot, generation), so a handle to a fired or drained event is inert.
///
/// It carries no telemetry, causal spans or shared control slab: only
/// the ordering algorithm, behind the subset of Simulator's interface
/// the tests and the bench drive (now, schedule, scheduleAt, run, idle).
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_TESTS_COMMON_REFERENCEEVENTQUEUE_H
#define GREENWEB_TESTS_COMMON_REFERENCEEVENTQUEUE_H

#include "support/Time.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

namespace greenweb {
namespace reference {

class ReferenceEventQueue {
public:
  /// Cancellation handle; cancel() on a fired or cancelled event is a
  /// no-op.
  class Handle {
  public:
    Handle() = default;
    void cancel() {
      if (Q)
        Q->cancel(Slot, Gen);
    }

  private:
    friend class ReferenceEventQueue;
    ReferenceEventQueue *Q = nullptr;
    uint32_t Slot = 0;
    uint32_t Gen = 0;
  };

  ReferenceEventQueue() = default;
  ReferenceEventQueue(const ReferenceEventQueue &) = delete;
  ReferenceEventQueue &operator=(const ReferenceEventQueue &) = delete;

  TimePoint now() const { return Now; }

  Handle schedule(Duration Delay, std::function<void()> Fn) {
    if (Delay.isNegative())
      Delay = Duration::zero();
    return scheduleAt(Now + Delay, std::move(Fn));
  }

  Handle scheduleAt(TimePoint When, std::function<void()> Fn) {
    if (When < Now)
      When = Now;
    uint32_t Slot;
    if (!FreeSlots.empty()) {
      Slot = FreeSlots.back();
      FreeSlots.pop_back();
    } else {
      Slot = uint32_t(Slots.size());
      Slots.emplace_back();
    }
    SlotState &S = Slots[Slot];
    S.Cancelled = false;
    S.Fn = std::move(Fn);
    Heap.push_back(Entry{When, NextSeq++, Slot});
    std::push_heap(Heap.begin(), Heap.end(), Later());
    ++Live;
    Handle H;
    H.Q = this;
    H.Slot = Slot;
    H.Gen = S.Gen;
    return H;
  }

  /// Fires events until the queue is empty or \p Limit events have run.
  uint64_t run(uint64_t Limit = UINT64_MAX) {
    uint64_t Count = 0;
    while (Count < Limit && fireNext())
      ++Count;
    return Count;
  }

  /// True when no live (non-cancelled) event is queued.
  bool idle() const { return Live == 0; }

private:
  struct Entry {
    TimePoint When;
    uint64_t Seq;
    uint32_t Slot;
  };
  struct SlotState {
    /// Bumped when the slot is recycled, invalidating old handles.
    uint32_t Gen = 0;
    bool Cancelled = false;
    std::function<void()> Fn;
  };
  struct Later {
    bool operator()(const Entry &A, const Entry &B) const {
      if (A.When != B.When)
        return A.When > B.When;
      return A.Seq > B.Seq;
    }
  };

  void cancel(uint32_t Slot, uint32_t Gen) {
    if (Slots[Slot].Gen != Gen || Slots[Slot].Cancelled)
      return;
    Slots[Slot].Cancelled = true;
    --Live;
  }

  void release(uint32_t Slot) {
    Slots[Slot].Fn = nullptr;
    ++Slots[Slot].Gen;
    FreeSlots.push_back(Slot);
  }

  bool fireNext() {
    while (!Heap.empty()) {
      std::pop_heap(Heap.begin(), Heap.end(), Later());
      Entry E = Heap.back();
      Heap.pop_back();
      if (Slots[E.Slot].Cancelled) {
        release(E.Slot);
        continue;
      }
      // The event counts as fired once dequeued: its handle goes inert
      // and the slot is free for whatever the callback schedules.
      std::function<void()> Fn = std::move(Slots[E.Slot].Fn);
      release(E.Slot);
      --Live;
      Now = E.When;
      Fn();
      return true;
    }
    return false;
  }

  TimePoint Now;
  uint64_t NextSeq = 0;
  std::vector<Entry> Heap;
  std::vector<SlotState> Slots;
  std::vector<uint32_t> FreeSlots;
  size_t Live = 0;
};

} // namespace reference
} // namespace greenweb

#endif // GREENWEB_TESTS_COMMON_REFERENCEEVENTQUEUE_H
