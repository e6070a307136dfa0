//===- sim/Simulator.cpp - Discrete-event simulation kernel ---------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "profiling/Profiler.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <stdexcept>

using namespace greenweb;

namespace {

/// Compaction kicks in only past this queue size (small queues drain
/// their stubs lazily just fine) and only when stubs are at least half
/// the queue, which bounds amortized cost: each compaction erases at
/// least half the queued elements, paying for the O(n) rebuild.
constexpr size_t CompactionMinQueueSize = 64;

/// Orders queue entries by (When, Seq) — the simulator's total order.
/// (Templated so the anonymous namespace need not name the private
/// nested entry type.)
struct EntryBefore {
  template <class EventT>
  bool operator()(const EventT &A, const EventT &B) const {
    if (A.When != B.When)
      return A.When < B.When;
    return A.Seq < B.Seq;
  }
};

/// Heap comparator that puts the (When, Seq)-earliest entry at the
/// front of the overflow ladder.
struct EntryAfter {
  template <class EventT>
  bool operator()(const EventT &A, const EventT &B) const {
    return EntryBefore()(B, A);
  }
};

/// Sorts a bucket tail. Buckets are short (a handful of events per
/// 65.5 us tick) and near-sorted already — same-period timers arrive in
/// When order — so a binary-insertion sort beats std::sort's partition
/// shuffling on the common case; genuinely large tails (timestamp
/// pileups) still go through introsort.
template <class EventT> void sortTail(EventT *First, EventT *Last) {
  constexpr EntryBefore Before;
  // Appends arrive in Seq order, and coalesced timers (vsync ticks,
  // same-period timers) arrive in When order too, so a fully sorted
  // tail is the common case: detect it with one linear scan and the
  // batch drain costs nothing beyond the appends themselves.
  EventT *I = First + 1;
  while (I < Last && !Before(*I, I[-1]))
    ++I;
  if (I == Last)
    return;
  if (Last - First > 48) {
    std::sort(First, Last, Before);
    return;
  }
  for (; I < Last; ++I) {
    if (!Before(*I, I[-1]))
      continue;
    EventT Tmp = *I;
    EventT *Pos = std::upper_bound(First, I, Tmp, Before);
    std::memmove(Pos + 1, Pos, size_t(I - Pos) * sizeof(EventT));
    *Pos = Tmp;
  }
}

/// Index of the lowest set bit; W must be nonzero.
inline unsigned lowestBit(uint64_t W) {
#if defined(__GNUC__) || defined(__clang__)
  return unsigned(__builtin_ctzll(W));
#else
  unsigned N = 0;
  while (!(W & 1)) {
    W >>= 1;
    ++N;
  }
  return N;
#endif
}

} // namespace

Simulator::~Simulator() { releaseHubClock(); }

void Simulator::releaseHubClock() {
  if (!Clock)
    return;
  Clock->End = Now;
  Clock->At = &Clock->End;
  Clock.reset();
}

void Simulator::setTelemetry(Telemetry *T) {
  releaseHubClock();
  Tel = T;
  if (!Tel) {
    ScheduledCtr = FiredCtr = CancelledCtr = CompactionsCtr = nullptr;
    QueuePeakGauge = nullptr;
    return;
  }
  Clock = std::make_shared<HubClock>(HubClock{&Now, Now});
  Tel->setClock([C = Clock] { return *C->At; });
  MetricsRegistry &M = Tel->metrics();
  ScheduledCtr = &M.counter("sim.events_scheduled");
  FiredCtr = &M.counter("sim.events_fired");
  CancelledCtr = &M.counter("sim.events_cancelled");
  CompactionsCtr = &M.counter("sim.queue_compactions");
  QueuePeakGauge = &M.gauge("sim.queue_depth_peak");
  QueuePeak = size_t(QueuePeakGauge->value());
  ReportedCancelled = uint64_t(CancelledCtr->value());
  ReportedCompactions = uint64_t(CompactionsCtr->value());
  // Host-side timings vary run to run; keep them out of deterministic
  // snapshots.
  M.gauge("sim.host_seconds");
  M.markVolatile("sim.host_seconds");
}

void Simulator::noteScheduled() {
  if (!Tel || !Tel->enabled())
    return;
  ScheduledCtr->add();
  if (Ctrl->TotalCancelled > ReportedCancelled) {
    CancelledCtr->add(Ctrl->TotalCancelled - ReportedCancelled);
    ReportedCancelled = Ctrl->TotalCancelled;
  }
  if (Compactions > ReportedCompactions) {
    CompactionsCtr->add(Compactions - ReportedCompactions);
    ReportedCompactions = Compactions;
  }
  size_t Pending = pendingEvents();
  if (Pending > QueuePeak) {
    QueuePeak = Pending;
    QueuePeakGauge->set(double(QueuePeak));
  }
}

void Simulator::noteFired() {
  if (Tel && Tel->enabled())
    FiredCtr->add();
}

EventHandle Simulator::schedule(Duration Delay, EventCallback Fn) {
  if (Delay.isNegative())
    Delay = Duration::zero();
  return enqueue(Now + Delay, Fn);
}

EventHandle Simulator::scheduleAt(TimePoint When, EventCallback Fn) {
  return enqueue(When, Fn);
}

EventHandle Simulator::enqueue(TimePoint When, EventCallback &Fn) {
  if (!Fn)
    throw std::invalid_argument("Simulator: scheduling an empty callback");
  if (When < Now)
    When = Now;
  maybeCompact();
  uint32_t Slot = Ctrl->acquire();
  uint64_t Seq = NextSeq++;
  int64_t SpanCtx = (Tel && Tel->enabled()) ? Tel->spans().current() : 0;
  EventHandle Handle;
  Handle.Slab = Ctrl;
  Handle.Slot = Slot;
  Handle.Gen = Ctrl->Slots[Slot].Gen;
  Event E;
  E.When = When;
  E.Seq = Seq;
  E.Slot = Slot;
  if (Slot >= Payloads.size())
    Payloads.resize(Slot + 1);
  Payload &P = Payloads[Slot];
  P.Fn = std::move(Fn);
  P.SpanCtx = SpanCtx;
  calSchedule(E);
  noteScheduled();
  return Handle;
}

void Simulator::dropStub(uint32_t Slot) {
  Payloads[Slot].Fn.reset();
  Ctrl->release(Slot);
}

void Simulator::maybeCompact() {
  size_t Pending = pendingEvents();
  if (Pending < CompactionMinQueueSize ||
      Ctrl->CancelledPending * 2 < Pending)
    return;
  GW_PROF_SCOPE("sim.compact");
  auto Dead = [this](const Event &E) {
    if (!Ctrl->cancelled(E.Slot))
      return false;
    dropStub(E.Slot);
    return true;
  };
  size_t Removed = 0;
  for (CalBucket &B : Buckets) {
    if (B.Cursor >= B.Events.size())
      continue;
    // Only the undrained tail holds queued events; the stable erase
    // preserves the tail's sorted order, so Dirty flags stand as-is.
    auto First = B.Events.begin() + B.Cursor;
    auto NewEnd = std::remove_if(First, B.Events.end(), Dead);
    Removed += size_t(B.Events.end() - NewEnd);
    B.Events.erase(NewEnd, B.Events.end());
  }
  auto NewEnd = std::remove_if(Overflow.begin(), Overflow.end(), Dead);
  if (NewEnd != Overflow.end()) {
    Removed += size_t(Overflow.end() - NewEnd);
    Overflow.erase(NewEnd, Overflow.end());
    std::make_heap(Overflow.begin(), Overflow.end(), EntryAfter());
  }
  CalSize -= Removed;
  Ctrl->CancelledPending = 0;
  ++Compactions;
}

//===--- Calendar queue ---------------------------------------------------===//

size_t Simulator::nextOccupied(size_t From) const {
  size_t W = From >> 6;
  if (W >= OccWords)
    return BucketCount;
  uint64_t Word = OccBits[W] & (~uint64_t(0) << (From & 63));
  for (;;) {
    if (Word)
      return (W << 6) + lowestBit(Word);
    if (++W == OccWords)
      return BucketCount;
    Word = OccBits[W];
  }
}

void Simulator::calInsert(size_t Idx, const Event &E) {
  CalBucket &B = Buckets[Idx];
  if (B.Events.capacity() == 0 && !BucketPool.empty()) {
    B.Events = std::move(BucketPool.back());
    BucketPool.pop_back();
  }
  B.Events.push_back(E);
  B.Dirty = true;
  OccBits[Idx >> 6] |= uint64_t(1) << (Idx & 63);
}

void Simulator::calSchedule(const Event &E) {
  uint64_t Tick = tickOf(E.When);
  // Behind the scan position (possible when a horizon jump ran ahead of
  // the clock): clamp into the current bucket, where (When, Seq)
  // sorting still pops it before everything later.
  if (Tick < CurTick)
    Tick = CurTick;
  ++CalSize;
  if (Tick >= WindowBase + BucketCount) {
    Overflow.push_back(E);
    std::push_heap(Overflow.begin(), Overflow.end(), EntryAfter());
    return;
  }
  calInsert(Tick & BucketMask, E);
}

void Simulator::calAdvanceHorizon() {
  GW_PROF_SCOPE("sim.calendar.advance");
  assert(!Overflow.empty() && "advancing horizon with no overflow");
  uint64_t MinTick = tickOf(Overflow.front().When);
  // Anchor the new window at the earliest pending tick, aligned so
  // bucket index scans stay monotone in time.
  WindowBase = MinTick & ~uint64_t(BucketMask);
  CurTick = MinTick;
  // Insertion order into a bucket does not matter: the bucket is
  // marked dirty and sorted by (When, Seq) on first touch.
  while (!Overflow.empty()) {
    uint64_t Tick = tickOf(Overflow.front().When);
    if (Tick >= WindowBase + BucketCount)
      break;
    std::pop_heap(Overflow.begin(), Overflow.end(), EntryAfter());
    calInsert(Tick & BucketMask, Overflow.back());
    Overflow.pop_back();
  }
}

Simulator::Event *Simulator::calFront() {
  // Fast path: the bucket under the scan position still holds sorted
  // entries, so it is the front (every earlier bucket is drained).
  if (CurTick < WindowBase + BucketCount) {
    CalBucket &B = Buckets[CurTick & BucketMask];
    if (B.Cursor < B.Events.size() && !B.Dirty)
      return &B.Events[B.Cursor];
  }
  for (;;) {
    if (CalSize == 0)
      return nullptr;
    while (CurTick < WindowBase + BucketCount) {
      size_t Idx = nextOccupied(CurTick - WindowBase);
      if (Idx == BucketCount) {
        CurTick = WindowBase + BucketCount;
        break;
      }
      CurTick = WindowBase + Idx;
      CalBucket &B = Buckets[Idx];
      if (B.Cursor < B.Events.size()) {
        if (B.Dirty) {
          sortTail(B.Events.data() + B.Cursor,
                   B.Events.data() + B.Events.size());
          B.Dirty = false;
        }
        return &B.Events[B.Cursor];
      }
      // Bucket fully drained: recycle its storage and move on.
      B.Events.clear();
      if (B.Events.capacity() != 0 && BucketPool.size() < 64)
        BucketPool.push_back(std::move(B.Events));
      B.Cursor = 0;
      B.Dirty = false;
      OccBits[Idx >> 6] &= ~(uint64_t(1) << (Idx & 63));
      ++CurTick;
    }
    calAdvanceHorizon();
  }
}

void Simulator::calPopFront() {
  CalBucket &B = Buckets[CurTick & BucketMask];
  assert(B.Cursor < B.Events.size() && "pop without a front");
  ++B.Cursor;
  --CalSize;
}

Simulator::Event *Simulator::liveFront() {
  while (Event *Front = calFront()) {
    if (!Ctrl->cancelled(Front->Slot))
      return Front;
    --Ctrl->CancelledPending;
    dropStub(Front->Slot);
    calPopFront();
  }
  return nullptr;
}

void Simulator::fire(Event *Front) {
  // Copy the entry out first: Fn below may grow this bucket and
  // invalidate the pointer.
  Event E = *Front;
  calPopFront();
  // Move the payload out and retire the slot before running Fn: the
  // event counts as fired the moment it is dequeued, so handles
  // observed from inside the callback are inert and cancelling them
  // is a no-op — and the slot is free for immediate reuse by whatever
  // Fn schedules.
  Payload &P = Payloads[E.Slot];
  EventCallback Fn = std::move(P.Fn);
  int64_t SpanCtx = P.SpanCtx;
  Ctrl->release(E.Slot);
  assert(E.When >= Now && "event queue went backwards");
  Now = E.When;
  noteFired();
  if (SpanCtx != 0 && Tel && Tel->enabled()) {
    int64_t Prev = Tel->spans().setCurrent(SpanCtx);
    Fn();
    // The callback may have detached the hub; only restore into a live
    // tracer.
    if (Tel)
      Tel->spans().setCurrent(Prev);
  } else {
    Fn();
  }
}

namespace {

/// Accounts one run-loop invocation: host wall time spent (volatile)
/// and the virtual clock reached, the raw data for the virtual/host
/// time ratio the profiling work in ROADMAP.md needs.
class RunTimer {
public:
  RunTimer(Telemetry *Tel, TimePoint &Now) : Tel(Tel), Now(Now) {
    if (Tel && Tel->enabled())
      HostStart = std::chrono::steady_clock::now();
  }
  ~RunTimer() {
    if (!Tel || !Tel->enabled())
      return;
    double HostSecs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      HostStart)
            .count();
    Tel->metrics().gauge("sim.host_seconds").add(HostSecs);
    Tel->metrics().gauge("sim.virtual_seconds").set(Now.secs());
  }

private:
  Telemetry *Tel;
  TimePoint &Now;
  std::chrono::steady_clock::time_point HostStart;
};

} // namespace

uint64_t Simulator::run(uint64_t Limit) {
  GW_PROF_SCOPE("sim.run");
  RunTimer Timer(Tel, Now);
  uint64_t Count = 0;
  while (Count < Limit) {
    Event *Front = liveFront();
    if (!Front)
      break;
    fire(Front);
    ++Count;
  }
  return Count;
}

uint64_t Simulator::runUntil(TimePoint Until) {
  GW_PROF_SCOPE("sim.run_until");
  RunTimer Timer(Tel, Now);
  uint64_t Count = 0;
  while (Event *Front = liveFront()) {
    if (Front->When > Until)
      break;
    fire(Front);
    ++Count;
  }
  if (Now < Until)
    Now = Until;
  return Count;
}
