//===- sim/Simulator.h - Discrete-event simulation kernel -----*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrete-event simulation kernel. A Simulator owns a virtual clock
/// and a queue of timestamped events; everything else in the system
/// (hardware model, browser threads, governors) advances time only
/// through this kernel, which keeps experiments fully deterministic.
///
/// Events scheduled at equal timestamps fire in scheduling order (a
/// monotone sequence number breaks ties), so runs are reproducible across
/// platforms and standard libraries.
///
/// The event queue is a calendar queue: a power-of-two wheel of time
/// buckets (sorted lazily, on first touch, and drained through a cursor
/// so same-timestamp clusters pop by a pointer bump) plus an overflow
/// ladder for events beyond the wheel's horizon. The ladder is a
/// min-heap ordered by When, so advancing the horizon pops exactly the
/// entries that enter the new window instead of rescanning the whole
/// ladder (full sessions schedule every input up front). An occupancy
/// bitmap skips empty buckets in O(1), and drained buckets recycle their
/// storage through a pool. Queue entries are trivially-copyable 24-byte
/// records and callbacks live in a slot-addressed payload side table, so
/// bucket sorts move plain memcpys. A binary-heap reference queue with
/// the same (When, Seq) order lives in tests/common/ReferenceEventQueue.h,
/// and the randomized differential tests in tests/sim pin the two
/// together.
///
/// Callbacks are EventCallbacks: move-only InlineFunctions that keep
/// captures of up to EventCallableBytes inline in the payload table, so
/// steady-state scheduling and firing never touch the allocator; only a
/// larger capture is boxed. The run loop looks the queue front up once
/// per event and fires from that entry.
///
/// Event control state lives in a pooled slab shared by the simulator and
/// every EventHandle: one {generation, cancelled} record per in-flight
/// event, recycled through a free list. Handles address their record by
/// (slot, generation); once the event fires or its cancelled stub is
/// drained, the slot's generation is bumped and every outstanding handle
/// goes inert — so a slot can be reused immediately without a stale
/// handle ever touching the new occupant.
///
/// Cancellation is lazy: cancelled events stay queued as stubs until
/// they surface or until the queue is compacted (which happens
/// automatically when stubs dominate the queue; see maybeCompact).
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_SIM_SIMULATOR_H
#define GREENWEB_SIM_SIMULATOR_H

#include "support/InlineFunction.h"
#include "support/Time.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace greenweb {

class Counter;
class FaultInjector;
class Gauge;
class Telemetry;

/// Inline capture budget of an event callback, in bytes: enough for the
/// hot producers (a SimThread completion, a delayed-post timer, a
/// lifetime-guarded browser timer, at most 32 bytes each) with room to
/// spare, and small enough that a payload-table entry (callable plus
/// span context) is 64 bytes, one cache line, on a 64-bit host. A larger
/// capture still works; it is boxed on the heap.
inline constexpr std::size_t EventCallableBytes = 40;
using EventCallback = InlineFunction<void(), EventCallableBytes>;

namespace detail {

/// Pooled per-event control records. Owned jointly (shared_ptr) by the
/// Simulator and all EventHandles so a handle outliving its simulator
/// degrades to a harmless no-op instead of dangling.
struct EventControlSlab {
  struct Control {
    /// Bumped every time the slot is recycled; a handle whose stored
    /// generation no longer matches refers to a dead event.
    uint32_t Gen = 0;
    bool Cancelled = false;
  };

  std::vector<Control> Slots;
  std::vector<uint32_t> FreeList;
  /// Cancelled events still sitting in the queue as stubs (the lazy
  /// deletion debt that compaction clears).
  size_t CancelledPending = 0;
  uint64_t TotalCancelled = 0;

  /// Claims a slot for a new event and returns its index. The slot's
  /// current generation is the one handles must carry.
  uint32_t acquire() {
    if (!FreeList.empty()) {
      uint32_t Slot = FreeList.back();
      FreeList.pop_back();
      Slots[Slot].Cancelled = false;
      return Slot;
    }
    Slots.push_back(Control{});
    return static_cast<uint32_t>(Slots.size() - 1);
  }

  /// Retires a slot: the generation bump invalidates all handles before
  /// the slot re-enters circulation.
  void release(uint32_t Slot) {
    ++Slots[Slot].Gen;
    FreeList.push_back(Slot);
  }

  /// Marks the event cancelled if \p Gen still names a live event.
  /// Returns true when this call actually cancelled something.
  bool cancel(uint32_t Slot, uint32_t Gen) {
    if (Slot >= Slots.size() || Slots[Slot].Gen != Gen ||
        Slots[Slot].Cancelled)
      return false;
    Slots[Slot].Cancelled = true;
    ++CancelledPending;
    ++TotalCancelled;
    return true;
  }

  bool isActive(uint32_t Slot, uint32_t Gen) const {
    return Slot < Slots.size() && Slots[Slot].Gen == Gen &&
           !Slots[Slot].Cancelled;
  }

  bool cancelled(uint32_t Slot) const { return Slots[Slot].Cancelled; }
};

} // namespace detail

/// Cancellation handle for a scheduled event. Copies share state; calling
/// cancel() on any copy prevents the callback from running.
class EventHandle {
public:
  EventHandle() = default;

  /// Prevents the event from firing. Safe to call repeatedly or after the
  /// event has already fired (then it is a no-op: the slot's generation
  /// has moved on and the slab ignores the stale reference).
  void cancel() {
    if (Slab)
      Slab->cancel(Slot, Gen);
  }

  /// True if the handle refers to a scheduled (not yet fired or cancelled)
  /// event.
  bool isActive() const { return Slab && Slab->isActive(Slot, Gen); }

private:
  friend class Simulator;
  std::shared_ptr<detail::EventControlSlab> Slab;
  uint32_t Slot = 0;
  uint32_t Gen = 0;
};

/// The simulation kernel: a virtual clock plus an event queue.
class Simulator {
public:
  Simulator()
      : Buckets(BucketCount),
        Ctrl(std::make_shared<detail::EventControlSlab>()) {}
  Simulator(const Simulator &) = delete;
  Simulator &operator=(const Simulator &) = delete;

  /// Current virtual time.
  TimePoint now() const { return Now; }

  /// Schedules \p Fn to run \p Delay after the current time. Negative
  /// delays are clamped to zero. Throws std::invalid_argument when \p Fn
  /// is empty, so a missing callback fails at the caller rather than
  /// when the event fires.
  EventHandle schedule(Duration Delay, EventCallback Fn);

  /// Schedules \p Fn at an absolute instant; instants in the past fire at
  /// the current time (still in FIFO order). Throws std::invalid_argument
  /// when \p Fn is empty.
  EventHandle scheduleAt(TimePoint When, EventCallback Fn);

  /// Runs events until the queue is empty or \p Limit events have fired.
  /// Returns the number of events processed.
  uint64_t run(uint64_t Limit = UINT64_MAX);

  /// Runs events with timestamps <= \p Until, then sets the clock to
  /// \p Until. Returns the number of events processed.
  uint64_t runUntil(TimePoint Until);

  /// Number of events currently pending (including cancelled stubs not yet
  /// drained).
  size_t pendingEvents() const { return CalSize; }

  /// Number of live (non-cancelled) events currently queued. O(1): the
  /// queue size and the slab's cancelled-stub count are both maintained
  /// incrementally.
  size_t liveEvents() const { return pendingEvents() - Ctrl->CancelledPending; }

  /// True if no live (non-cancelled) events remain. O(1).
  bool idle() const { return liveEvents() == 0; }

  /// Lazy-deletion statistics: cancelled stubs currently queued, total
  /// cancellations over the simulator's lifetime, and how many times the
  /// queue was compacted to evict stubs.
  size_t cancelledPending() const { return Ctrl->CancelledPending; }
  uint64_t totalCancelled() const { return Ctrl->TotalCancelled; }
  uint64_t queueCompactions() const { return Compactions; }
  /// Pool high-water mark: control slots ever allocated (live + free).
  size_t controlSlots() const { return Ctrl->Slots.size(); }

  /// Attaches (or detaches, with nullptr) a telemetry hub. The hub's
  /// clock is rebound to this simulator, kernel counters are
  /// registered, and every producer holding a reference to this
  /// Simulator can reach the hub through telemetry(). The hub must
  /// outlive the simulation (or be detached first).
  void setTelemetry(Telemetry *T);
  Telemetry *telemetry() const { return Tel; }

  /// Attaches (or detaches, with nullptr) a fault injector, the same
  /// opaque-pointer pattern as the telemetry hub: producers that can be
  /// perturbed (chip, meter, browser) query it through the simulator
  /// they already hold. The injector must outlive the simulation or
  /// detach first (FaultInjector's destructor detaches).
  void setFaultInjector(FaultInjector *F) { Faults = F; }
  FaultInjector *faultInjector() const { return Faults; }

private:
  /// Folds queue/event accounting into the attached registry.
  void noteScheduled();
  void noteFired();
  /// Evicts cancelled stubs in bulk once they dominate the queue, so a
  /// cancellation-heavy workload cannot make the queue grow without
  /// bound. (When, Seq) ordering of survivors is intact.
  void maybeCompact();

  struct Event;
  /// Drains cancelled stubs at the queue front and returns the earliest
  /// live entry, or nullptr when none remain.
  Event *liveFront();
  /// Shared body of schedule/scheduleAt; takes the callback by reference
  /// so it moves once, into the payload table.
  EventHandle enqueue(TimePoint When, EventCallback &Fn);
  /// Dequeues \p Front (the entry liveFront just returned) and runs it.
  void fire(Event *Front);
  /// Retires the slot of a dequeued or evicted cancelled stub.
  void dropStub(uint32_t Slot);

  //===--- Queue entries ---------------------------------------------===//

  /// A queue entry is deliberately a trivially-copyable 24 bytes: bucket
  /// sorts move entries many times per event, and keeping the
  /// callback out of the entry turns each of those moves into a
  /// plain memcpy instead of an indirect callable-manager call. The
  /// callback lives in Payloads, indexed by the (stable) control slot.
  struct Event {
    TimePoint When;
    uint64_t Seq;
    /// Control-slab slot carrying this event's cancelled flag and
    /// indexing its payload.
    uint32_t Slot;
  };
  struct Payload {
    EventCallback Fn;
    /// Ambient causal span at scheduling time; restored around Fn so
    /// spans begun inside the callback parent under the scheduler's
    /// context (carries causality across IPC delays and timers).
    int64_t SpanCtx = 0;
  };

  //===--- Calendar queue --------------------------------------------===//

  /// Append-only within its tick window; sorted lazily when the scan
  /// cursor first touches it (Dirty), then drained through Cursor so a
  /// cluster of same-timestamp events pops by pointer bumps — the batch
  /// drain. Scheduling into the currently-draining bucket re-marks it
  /// dirty; only the undrained tail [Cursor, end) is re-sorted, which
  /// preserves the global order because new events always carry
  /// When >= Now and a larger Seq than everything already drained.
  struct CalBucket {
    std::vector<Event> Events;
    size_t Cursor = 0;
    bool Dirty = false;
  };

  /// Wheel geometry: 2048 buckets of 2^16 ns (65.5 us) cover a ~134 ms
  /// horizon — wide enough that VSync (16.7 ms) and DVFS (50–100 ms)
  /// timers land in the wheel directly, narrow enough that a bucket
  /// holds only a handful of events (see docs/PERFORMANCE.md for the
  /// width derivation).
  static constexpr unsigned BucketShift = 16;
  static constexpr size_t BucketCount = 2048;
  static constexpr size_t BucketMask = BucketCount - 1;
  static constexpr size_t OccWords = BucketCount / 64;

  static uint64_t tickOf(TimePoint T) {
    return uint64_t(T.nanos()) >> BucketShift;
  }

  void calSchedule(const Event &E);
  /// Positions CurTick on the earliest non-empty bucket (advancing the
  /// horizon over the overflow ladder if the wheel is drained) and
  /// returns its front entry, or nullptr when the queue is empty.
  Event *calFront();
  /// Consumes the entry calFront returned.
  void calPopFront();
  /// Anchors a new wheel window at the earliest overflow tick and pops
  /// the overflow entries that fall inside it into their buckets.
  void calAdvanceHorizon();
  /// Appends \p E to the bucket at wheel index \p Idx.
  void calInsert(size_t Idx, const Event &E);
  /// First occupied bucket index >= From, or BucketCount when none.
  size_t nextOccupied(size_t From) const;

  TimePoint Now;
  uint64_t NextSeq = 0;
  /// Slot-indexed callback storage (parallel to Ctrl->Slots). Written
  /// once at schedule time, moved out at fire time, cleared on release
  /// so captured state is not kept alive by a retired slot.
  std::vector<Payload> Payloads;

  /// Calendar state. The wheel covers ticks
  /// [WindowBase, WindowBase + BucketCount); WindowBase is aligned to
  /// BucketCount so bucket index == tick & BucketMask scans
  /// monotonically. CurTick is the scan position; events that would
  /// land behind it (only possible after a horizon jump past Now) are
  /// clamped into the CurTick bucket, where (When, Seq) sorting still
  /// pops them first.
  std::vector<CalBucket> Buckets;
  /// The overflow ladder: entries beyond the wheel's horizon, kept as a
  /// min-heap on (When, Seq) so the earliest is at the front.
  std::vector<Event> Overflow;
  /// Recycled bucket storage: a fully drained bucket donates its vector
  /// here instead of freeing it, and the next bucket to go occupied
  /// takes one back — steady-state scheduling then touches the
  /// allocator not at all, even though the scan constantly retires and
  /// repopulates buckets. Bounded so an atypical burst cannot pin
  /// memory.
  std::vector<std::vector<Event>> BucketPool;
  uint64_t OccBits[OccWords] = {};
  uint64_t WindowBase = 0;
  uint64_t CurTick = 0;
  /// Total entries queued across wheel + overflow, including cancelled
  /// stubs.
  size_t CalSize = 0;

  std::shared_ptr<detail::EventControlSlab> Ctrl;
  uint64_t Compactions = 0;

  /// Optional telemetry hub (owned by the experiment driver). Cached
  /// metric pointers keep the enabled-path cost to a few increments and
  /// the disabled-path cost to one branch.
  Telemetry *Tel = nullptr;
  /// Optional fault injector (owned by the experiment driver).
  FaultInjector *Faults = nullptr;
  Counter *ScheduledCtr = nullptr;
  Counter *FiredCtr = nullptr;
  Counter *CancelledCtr = nullptr;
  Counter *CompactionsCtr = nullptr;
  Gauge *QueuePeakGauge = nullptr;
  size_t QueuePeak = 0;
  /// Cancellations/compactions already folded into the counters; the
  /// deltas are published from noteScheduled/noteFired since the slab
  /// has no back-reference to the hub.
  uint64_t ReportedCancelled = 0;
  uint64_t ReportedCompactions = 0;
};

} // namespace greenweb

#endif // GREENWEB_SIM_SIMULATOR_H
