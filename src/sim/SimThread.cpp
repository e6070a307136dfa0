//===- sim/SimThread.cpp - Simulated serial task executor -----------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/SimThread.h"

#include "profiling/Profiler.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace greenweb;

CpuModel::~CpuModel() = default;

void CpuModel::attachThread(SimThread *Thread) {
  assert(Thread && "attaching null thread");
  Threads.push_back(Thread);
}

void CpuModel::detachThread(SimThread *Thread) {
  Threads.erase(std::remove(Threads.begin(), Threads.end(), Thread),
                Threads.end());
}

void CpuModel::replanAttachedThreads() {
  for (SimThread *Thread : Threads)
    Thread->replan();
}

void CpuModel::stallAttachedThreads(Duration D) {
  for (SimThread *Thread : Threads)
    Thread->stall(D);
}

void TaskRing::push(SimTask &&Task) {
  if (Count == Slots.size()) {
    // Full: unroll into a ring twice the size, oldest first.
    std::vector<SimTask> Grown(std::max<size_t>(8, Slots.size() * 2));
    for (size_t I = 0; I < Count; ++I)
      Grown[I] = std::move(Slots[(Head + I) & (Slots.size() - 1)]);
    Slots = std::move(Grown);
    Head = 0;
  }
  Slots[(Head + Count) & (Slots.size() - 1)] = std::move(Task);
  ++Count;
}

void TaskRing::popInto(SimTask &Out) {
  assert(Count > 0 && "pop from an empty task ring");
  Out = std::move(Slots[Head]);
  Head = (Head + 1) & (Slots.size() - 1);
  --Count;
}

SimThread::SimThread(Simulator &Sim, CpuModel &Cpu, std::string Name,
                     unsigned Id)
    : Sim(Sim), Cpu(Cpu), Name(std::move(Name)), Id(Id) {
  Cpu.attachThread(this);
}

SimThread::~SimThread() {
  *Alive = false;
  Completion.cancel();
  Cpu.detachThread(this);
}

SpanTracer *SimThread::tracer() const {
  Telemetry *T = Sim.telemetry();
  return T && T->enabled() ? &T->spans() : nullptr;
}

void SimThread::post(SimTask Task) {
  if (Task.ParentSpan == 0)
    if (SpanTracer *Tr = tracer())
      Task.ParentSpan = Tr->current();
  Queue.push(std::move(Task));
  if (!Running)
    startNext();
}

void SimThread::postDelayed(SimTask Task, Duration Delay) {
  // Capture causality at the call, not when the timer fires.
  if (Task.ParentSpan == 0)
    if (SpanTracer *Tr = tracer())
      Task.ParentSpan = Tr->current();
  // Park the payload in a pooled slot, so the timer closure stays small
  // enough to sit inline in the event queue. The Alive token drops the
  // task if the thread dies while the delay is pending; its parked slot
  // dies with the pool.
  uint32_t Slot;
  if (DelayedFree.empty()) {
    Slot = static_cast<uint32_t>(DelayedPool.size());
    DelayedPool.emplace_back();
  } else {
    Slot = DelayedFree.back();
    DelayedFree.pop_back();
  }
  DelayedPool[Slot] = std::move(Task);
  Sim.schedule(Delay, [this, Slot, Token = Alive] {
    if (!*Token)
      return;
    SimTask Parked = std::move(DelayedPool[Slot]);
    DelayedFree.push_back(Slot);
    post(std::move(Parked));
  });
}

void SimThread::startNext() {
  assert(!Running && "thread already running a task");
  if (Queue.empty())
    return;
  GW_PROF_SCOPE("sim.thread.start_task");
  Running = true;
  Queue.popInto(Current);
  SpanTracer *Tr = tracer();
  if (Tr)
    CurrentSpan = Tr->begin(Current.Label, Name, 0, 0, Current.ParentSpan);
  TaskCost Cost = Current.Cost;
  if (Current.ComputeCost) {
    // Script side effects run here; spans they open (and tasks they
    // post) descend from this task.
    int64_t Prev = Tr ? Tr->setCurrent(CurrentSpan) : 0;
    Cost = Current.ComputeCost();
    if (Tr)
      Tr->setCurrent(Prev);
  }
  FixedRemaining = Cost.FixedTime;
  CyclesRemaining = std::max(0.0, Cost.Cycles);
  BusySince = Sim.now();
  Cpu.onThreadActivity(Id, /*Busy=*/true);
  beginSlice();
}

void SimThread::beginSlice() {
  assert(Running && "slice without a running task");
  SliceStart = Sim.now();
  SliceHz = Cpu.effectiveHz(Id);
  assert(SliceHz > 0.0 && "CPU model returned non-positive speed");
  Duration CycleTime = Duration::fromSeconds(CyclesRemaining / SliceHz);
  Completion.cancel();
  Completion =
      Sim.schedule(FixedRemaining + CycleTime, [this] { finishCurrent(); });
}

void SimThread::accrueProgress() {
  assert(Running && "accruing progress while idle");
  Duration Elapsed = Sim.now() - SliceStart;
  if (Elapsed <= FixedRemaining) {
    FixedRemaining -= Elapsed;
    return;
  }
  Duration CycleElapsed = Elapsed - FixedRemaining;
  FixedRemaining = Duration::zero();
  CyclesRemaining =
      std::max(0.0, CyclesRemaining - CycleElapsed.secs() * SliceHz);
}

void SimThread::replan() {
  if (!Running)
    return;
  accrueProgress();
  beginSlice();
}

void SimThread::stall(Duration D) {
  if (!Running || D <= Duration::zero())
    return;
  accrueProgress();
  FixedRemaining += D;
  beginSlice();
}

void SimThread::finishCurrent() {
  assert(Running && "completion for an idle thread");
  Running = false;
  BusyAccum += Sim.now() - BusySince;
  Cpu.onThreadActivity(Id, /*Busy=*/false);
  ++TasksCompleted;
  // Move the callback out first: it may post new tasks to this thread.
  EventCallback Done = std::move(Current.OnComplete);
  Current = SimTask();
  int64_t Span = CurrentSpan;
  CurrentSpan = 0;
  SpanTracer *Tr = Span != 0 ? tracer() : nullptr;
  if (Tr) {
    // OnComplete is the task's logical effect: everything it posts or
    // records descends from this task's span.
    int64_t Prev = Tr->setCurrent(Span);
    if (Done)
      Done();
    Tr->setCurrent(Prev);
    Tr->end(Span);
  } else if (Done) {
    Done();
  }
  if (!Running && !Queue.empty())
    startNext();
}

Duration SimThread::totalBusyTime() const {
  Duration Total = BusyAccum;
  if (Running)
    Total += Sim.now() - BusySince;
  return Total;
}
