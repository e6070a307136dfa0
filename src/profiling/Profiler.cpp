//===- profiling/Profiler.cpp - Host-side self-profiler -------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "profiling/Profiler.h"

#include "support/Json.h"
#include "support/TablePrinter.h"
#include "telemetry/QuantileSketch.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>

namespace greenweb::prof {

namespace {

constexpr size_t RingCap = size_t(1) << 16;
constexpr size_t RingMask = RingCap - 1;
constexpr size_t MaxLiveDepth = 64;

/// One ring record: a scope enter (Name set) or exit (Name null).
struct ProfEvent {
  const char *Name;
  uint64_t Ns;
};

/// A scope currently open during ring replay.
struct OpenFrame {
  int32_t Node;
  uint64_t StartNs;
  uint64_t ChildNs;
};

/// Per-thread aggregation tree: one node per unique call path.
struct ScopeTree {
  struct Node {
    std::string_view Name;
    int32_t Parent; ///< -1 for roots.
    int32_t Depth;
    uint64_t Count = 0;
    uint64_t InclNs = 0;
    uint64_t SelfNs = 0;
    QuantileSketch InclSketch; ///< Inclusive ns per call.
  };

  std::vector<Node> Nodes;
  /// (parent node, name) -> node. Names compare by content so the same
  /// literal in different TUs lands on one node.
  std::map<std::pair<int32_t, std::string_view>, int32_t> Index;

  int32_t intern(int32_t Parent, const char *Name) {
    auto Key = std::make_pair(Parent, std::string_view(Name));
    auto It = Index.find(Key);
    if (It != Index.end())
      return It->second;
    Node N;
    N.Name = Key.second;
    N.Parent = Parent;
    N.Depth = Parent < 0 ? 0 : Nodes[Parent].Depth + 1;
    Nodes.push_back(std::move(N));
    int32_t Id = int32_t(Nodes.size() - 1);
    Index.emplace(Key, Id);
    return Id;
  }

  std::string path(int32_t Id) const {
    if (Id < 0)
      return {};
    std::string P = path(Nodes[Id].Parent);
    if (!P.empty())
      P += ';';
    P.append(Nodes[Id].Name);
    return P;
  }

  void clear() {
    Nodes.clear();
    Index.clear();
  }
};

struct RetainedSpan {
  int32_t Node;
  uint64_t BeginNs;
  uint64_t EndNs;
};

/// Everything one thread accumulates. The owning thread is the only
/// ring producer; the tree/stack/spans are touched only under Mu (by
/// the owner on a full ring, by collectors otherwise).
struct ThreadState {
  // --- hot-path (producer-owned) ---
  std::vector<ProfEvent> Ring = std::vector<ProfEvent>(RingCap);
  std::atomic<uint64_t> Head{0};
  std::atomic<uint64_t> Tail{0}; ///< Advanced only under Mu.
  std::atomic<uint64_t> Events{0};
  /// Sampler-visible live stack: depth + name per level, updated with
  /// relaxed stores on enter/exit.
  std::atomic<uint32_t> LiveDepth{0};
  std::atomic<const char *> LiveStack[MaxLiveDepth] = {};

  // --- drain-side (under Mu) ---
  std::mutex Mu;
  ScopeTree Tree;
  std::vector<OpenFrame> ReplayStack;
  std::vector<RetainedSpan> Spans;
  uint64_t DroppedSpans = 0;

  std::string Label;
  bool Retired = false;
};

struct Registry {
  std::mutex Mu;
  std::vector<std::unique_ptr<ThreadState>> States;
};

Registry &registry() {
  static Registry *R = new Registry; // Never destroyed: threads may
  return *R;                         // outlive static teardown order.
}

std::atomic<uint64_t> ProfileStartNs{0};
std::atomic<size_t> SpanRetention{100000};

void drainLocked(ThreadState &S) {
  uint64_t H = S.Head.load(std::memory_order_acquire);
  size_t Cap = SpanRetention.load(std::memory_order_relaxed);
  for (uint64_t I = S.Tail.load(std::memory_order_relaxed); I != H; ++I) {
    const ProfEvent &E = S.Ring[I & RingMask];
    if (E.Name) {
      int32_t Parent =
          S.ReplayStack.empty() ? -1 : S.ReplayStack.back().Node;
      int32_t Node = S.Tree.intern(Parent, E.Name);
      S.ReplayStack.push_back({Node, E.Ns, 0});
      continue;
    }
    if (S.ReplayStack.empty())
      continue; // Exit without enter: scope predates start().
    OpenFrame F = S.ReplayStack.back();
    S.ReplayStack.pop_back();
    uint64_t Incl = E.Ns >= F.StartNs ? E.Ns - F.StartNs : 0;
    ScopeTree::Node &N = S.Tree.Nodes[F.Node];
    ++N.Count;
    N.InclNs += Incl;
    N.SelfNs += Incl > F.ChildNs ? Incl - F.ChildNs : 0;
    N.InclSketch.observe(double(Incl));
    if (!S.ReplayStack.empty())
      S.ReplayStack.back().ChildNs += Incl;
    if (S.Spans.size() < Cap)
      S.Spans.push_back({F.Node, F.StartNs, E.Ns});
    else
      ++S.DroppedSpans;
  }
  S.Tail.store(H, std::memory_order_release);
}

/// Force-closes frames left open by a dying thread so a reused state
/// starts with clean nesting.
void retireLocked(ThreadState &S) {
  drainLocked(S);
  uint64_t Now = hostNowNs();
  while (!S.ReplayStack.empty()) {
    OpenFrame F = S.ReplayStack.back();
    S.ReplayStack.pop_back();
    uint64_t Incl = Now >= F.StartNs ? Now - F.StartNs : 0;
    ScopeTree::Node &N = S.Tree.Nodes[F.Node];
    ++N.Count;
    N.InclNs += Incl;
    N.SelfNs += Incl > F.ChildNs ? Incl - F.ChildNs : 0;
    N.InclSketch.observe(double(Incl));
    if (!S.ReplayStack.empty())
      S.ReplayStack.back().ChildNs += Incl;
  }
  S.LiveDepth.store(0, std::memory_order_relaxed);
  S.Retired = true;
}

/// Claims (or creates) this thread's state; a retired state from a
/// finished thread is reused so repeated worker fan-outs do not grow
/// the registry without bound.
ThreadState *claimThreadState() {
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.Mu);
  for (auto &S : R.States)
    if (S->Retired) {
      S->Retired = false;
      return S.get();
    }
  auto S = std::make_unique<ThreadState>();
  S->Label = formatString("host-%zu", R.States.size());
  R.States.push_back(std::move(S));
  return R.States.back().get();
}

/// Thread-local handle: lazily claims a state, retires it on exit.
struct ThreadStateHandle {
  ThreadState *S = nullptr;
  ~ThreadStateHandle() {
    if (!S)
      return;
    std::lock_guard<std::mutex> L(S->Mu);
    retireLocked(*S);
  }
};

ThreadState &threadState() {
  thread_local ThreadStateHandle H;
  if (!H.S)
    H.S = claimThreadState();
  return *H.S;
}

inline void push(ThreadState &S, const char *Name, uint64_t Ns) {
  uint64_t H = S.Head.load(std::memory_order_relaxed);
  if (H - S.Tail.load(std::memory_order_acquire) >= RingCap) {
    std::lock_guard<std::mutex> L(S.Mu);
    drainLocked(S); // Amortized: once per RingCap events.
  }
  S.Ring[H & RingMask] = {Name, Ns};
  S.Head.store(H + 1, std::memory_order_release);
  S.Events.fetch_add(1, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Sampler
//===----------------------------------------------------------------------===//

struct Sampler {
  std::mutex Mu;
  std::map<std::string, uint64_t> Counts;
  std::thread Worker;
  std::mutex StopMu;
  std::condition_variable StopCv;
  bool Running = false;
  bool StopRequested = false;
};

Sampler &sampler() {
  static Sampler *S = new Sampler;
  return *S;
}

void samplerTick() {
  Registry &R = registry();
  const char *Names[MaxLiveDepth];
  std::lock_guard<std::mutex> RL(R.Mu);
  for (auto &St : R.States) {
    uint32_t D = St->LiveDepth.load(std::memory_order_acquire);
    if (D == 0 || St->Retired)
      continue;
    D = std::min<uint32_t>(D, MaxLiveDepth);
    uint32_t Got = 0;
    for (uint32_t I = 0; I < D; ++I)
      if (const char *N = St->LiveStack[I].load(std::memory_order_relaxed))
        Names[Got++] = N;
    if (Got == 0)
      continue;
    std::string Path;
    for (uint32_t I = 0; I < Got; ++I) {
      if (I)
        Path += ';';
      Path += Names[I];
    }
    Sampler &Smp = sampler();
    std::lock_guard<std::mutex> SL(Smp.Mu);
    ++Smp.Counts[Path];
  }
}

} // namespace

namespace detail {

std::atomic<bool> GlobalEnabled{false};

void recordEnter(const char *Name) {
  ThreadState &S = threadState();
  push(S, Name, hostNowNs());
  uint32_t D = S.LiveDepth.load(std::memory_order_relaxed);
  if (D < MaxLiveDepth)
    S.LiveStack[D].store(Name, std::memory_order_relaxed);
  S.LiveDepth.store(D + 1, std::memory_order_release);
}

void recordExit() {
  ThreadState &S = threadState();
  push(S, nullptr, hostNowNs());
  uint32_t D = S.LiveDepth.load(std::memory_order_relaxed);
  if (D > 0)
    S.LiveDepth.store(D - 1, std::memory_order_release);
}

} // namespace detail

uint64_t hostNowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

void start() {
  ProfileStartNs.store(hostNowNs(), std::memory_order_relaxed);
  detail::GlobalEnabled.store(true, std::memory_order_relaxed);
}

void stop() { detail::GlobalEnabled.store(false, std::memory_order_relaxed); }

void setSpanRetention(size_t MaxSpans) {
  SpanRetention.store(MaxSpans, std::memory_order_relaxed);
}

void reset() {
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.Mu);
  for (auto &S : R.States) {
    std::lock_guard<std::mutex> SL(S->Mu);
    S->Head.store(0, std::memory_order_relaxed);
    S->Tail.store(0, std::memory_order_relaxed);
    S->Events.store(0, std::memory_order_relaxed);
    S->LiveDepth.store(0, std::memory_order_relaxed);
    S->Tree.clear();
    S->ReplayStack.clear();
    S->Spans.clear();
    S->DroppedSpans = 0;
  }
  Sampler &Smp = sampler();
  std::lock_guard<std::mutex> SL(Smp.Mu);
  Smp.Counts.clear();
}

double calibrateOverheadNsPerEvent() {
  static double Cached = [] {
    constexpr uint64_t Pairs = 50000;
    std::vector<ProfEvent> Scratch(RingCap);
    uint64_t H = 0;
    uint64_t Begin = hostNowNs();
    for (uint64_t I = 0; I < Pairs; ++I) {
      Scratch[H & RingMask] = {"calib", hostNowNs()};
      ++H;
      Scratch[H & RingMask] = {nullptr, hostNowNs()};
      ++H;
    }
    uint64_t End = hostNowNs();
    // Keep the scratch writes observable.
    if (Scratch[(H - 1) & RingMask].Name != nullptr)
      std::fprintf(stderr, "gw-prof: calibration self-check failed\n");
    return double(End - Begin) / double(Pairs * 2);
  }();
  return Cached;
}

Profile collect() {
  Profile P;
  P.OverheadNsPerEvent = calibrateOverheadNsPerEvent();
  uint64_t StartNs = ProfileStartNs.load(std::memory_order_relaxed);

  // Merge every thread tree into one path-keyed tree.
  ScopeTree Merged;
  std::vector<QuantileSketch> Sketches;

  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.Mu);
  for (size_t TI = 0; TI < R.States.size(); ++TI) {
    ThreadState &S = *R.States[TI];
    std::lock_guard<std::mutex> SL(S.Mu);
    drainLocked(S);
    P.Events += S.Events.load(std::memory_order_relaxed);
    P.DroppedSpans += S.DroppedSpans;
    P.ThreadLabels.push_back(S.Label);

    // Nodes are created parents-first, so a single pass can map them.
    std::vector<int32_t> Map(S.Tree.Nodes.size(), -1);
    for (size_t I = 0; I < S.Tree.Nodes.size(); ++I) {
      const ScopeTree::Node &N = S.Tree.Nodes[I];
      int32_t Parent = N.Parent < 0 ? -1 : Map[N.Parent];
      int32_t M = Merged.intern(Parent, N.Name.data());
      Map[I] = M;
      if (size_t(M) >= Sketches.size())
        Sketches.resize(M + 1);
      ScopeTree::Node &MN = Merged.Nodes[M];
      MN.Count += N.Count;
      MN.InclNs += N.InclNs;
      MN.SelfNs += N.SelfNs;
      Sketches[M].mergeFrom(N.InclSketch);
    }
    for (const RetainedSpan &Sp : S.Spans) {
      ProfileSpan Out;
      Out.Path = S.Tree.path(Sp.Node);
      Out.BeginNs = Sp.BeginNs >= StartNs ? Sp.BeginNs - StartNs : 0;
      Out.EndNs = Sp.EndNs >= StartNs ? Sp.EndNs - StartNs : 0;
      Out.Depth = S.Tree.Nodes[Sp.Node].Depth;
      Out.ThreadIndex = uint32_t(TI);
      P.Spans.push_back(std::move(Out));
    }
  }

  for (size_t I = 0; I < Merged.Nodes.size(); ++I) {
    const ScopeTree::Node &N = Merged.Nodes[I];
    ProfileNode Out;
    Out.Path = Merged.path(int32_t(I));
    Out.Name = std::string(N.Name);
    Out.Depth = N.Depth;
    Out.Count = N.Count;
    Out.InclNs = N.InclNs;
    Out.SelfNs = N.SelfNs;
    Out.P50Ns = Sketches[I].quantile(0.50);
    Out.P95Ns = Sketches[I].quantile(0.95);
    Out.P99Ns = Sketches[I].quantile(0.99);
    P.Nodes.push_back(std::move(Out));
  }
  std::sort(P.Nodes.begin(), P.Nodes.end(),
            [](const ProfileNode &A, const ProfileNode &B) {
              return A.Path < B.Path;
            });

  Sampler &Smp = sampler();
  std::lock_guard<std::mutex> SL(Smp.Mu);
  for (const auto &[Path, Count] : Smp.Counts)
    P.Samples.push_back({Path, Count});
  return P;
}

uint64_t Profile::rootInclNs() const {
  uint64_t Total = 0;
  for (const ProfileNode &N : Nodes)
    if (N.Depth == 0)
      Total += N.InclNs;
  return Total;
}

//===----------------------------------------------------------------------===//
// Sampler control
//===----------------------------------------------------------------------===//

void startSampler(uint64_t PeriodMicros) {
  Sampler &S = sampler();
  std::lock_guard<std::mutex> L(S.StopMu);
  if (S.Running)
    return;
  S.Running = true;
  S.StopRequested = false;
  S.Worker = std::thread([PeriodMicros] {
    Sampler &Smp = sampler();
    std::unique_lock<std::mutex> L(Smp.StopMu);
    while (!Smp.StopRequested) {
      Smp.StopCv.wait_for(L, std::chrono::microseconds(PeriodMicros));
      if (Smp.StopRequested)
        break;
      L.unlock();
      samplerTick();
      L.lock();
    }
  });
}

void stopSampler() {
  Sampler &S = sampler();
  {
    std::lock_guard<std::mutex> L(S.StopMu);
    if (!S.Running)
      return;
    S.StopRequested = true;
  }
  S.StopCv.notify_all();
  S.Worker.join();
  std::lock_guard<std::mutex> L(S.StopMu);
  S.Running = false;
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

std::string collapsedStacks(const Profile &P) {
  std::string Out;
  for (const ProfileNode &N : P.Nodes)
    if (N.SelfNs > 0)
      Out += formatString("%s %llu\n", N.Path.c_str(),
                          static_cast<unsigned long long>(N.SelfNs));
  return Out;
}

std::string collapsedSampleStacks(const Profile &P) {
  std::string Out;
  for (const SampledStack &S : P.Samples)
    Out += formatString("%s %llu\n", S.Path.c_str(),
                        static_cast<unsigned long long>(S.Count));
  return Out;
}

void appendHostTraceEvents(json::Writer &W, const Profile &P) {
  if (P.Spans.empty())
    return;
  // A dedicated pid keeps the host timebase visually separate from the
  // simulated-time tracks that share the trace.
  constexpr int HostPid = 9000;
  auto Meta = [&W](const char *Name, uint64_t Tid, std::string_view Label) {
    W.lineBreak().beginObject().key("name").str(Name).key("ph").str("M");
    W.key("pid").integer(HostPid).key("tid").uinteger(Tid);
    W.key("args").beginObject().key("name").str(Label);
    W.endObject().endObject();
  };
  Meta("process_name", 0, "gw-prof host time");
  for (size_t TI = 0; TI < P.ThreadLabels.size(); ++TI)
    Meta("thread_name", TI, P.ThreadLabels[TI]);
  for (const ProfileSpan &S : P.Spans) {
    std::string_view Leaf = S.Path;
    if (size_t Semi = Leaf.rfind(';'); Semi != std::string_view::npos)
      Leaf = Leaf.substr(Semi + 1);
    W.lineBreak().beginObject().key("name").str(Leaf);
    W.key("cat").str("host").key("ph").str("X").key("pid").integer(HostPid);
    W.key("tid").uinteger(S.ThreadIndex);
    W.key("ts").fixed(double(S.BeginNs) / 1e3, 3);
    W.key("dur").fixed(double(S.EndNs - S.BeginNs) / 1e3, 3);
    W.key("args").beginObject().key("path").str(S.Path);
    W.endObject().endObject();
  }
}

std::string reportTable(const Profile &P, size_t MaxRows) {
  std::vector<const ProfileNode *> ByS;
  ByS.reserve(P.Nodes.size());
  for (const ProfileNode &N : P.Nodes)
    ByS.push_back(&N);
  std::sort(ByS.begin(), ByS.end(),
            [](const ProfileNode *A, const ProfileNode *B) {
              if (A->SelfNs != B->SelfNs)
                return A->SelfNs > B->SelfNs;
              return A->Path < B->Path;
            });
  if (ByS.size() > MaxRows)
    ByS.resize(MaxRows);

  TablePrinter T(formatString(
      "gw-prof host profile (%llu events, ~%.1f ms instrumented, "
      "est. self-overhead %.2f ms)",
      static_cast<unsigned long long>(P.Events),
      double(P.rootInclNs()) / 1e6, P.selfOverheadNs() / 1e6));
  T.row()
      .cell("path")
      .cell("count")
      .cell("incl ms")
      .cell("self ms")
      .cell("p50 us")
      .cell("p95 us")
      .cell("p99 us");
  for (const ProfileNode *N : ByS)
    T.row()
        .cell(N->Path)
        .cell(double(N->Count), 0)
        .cell(double(N->InclNs) / 1e6, 3)
        .cell(double(N->SelfNs) / 1e6, 3)
        .cell(N->P50Ns / 1e3, 2)
        .cell(N->P95Ns / 1e3, 2)
        .cell(N->P99Ns / 1e3, 2);
  std::string Out = T.render();
  if (P.DroppedSpans > 0)
    Out += formatString("(%llu spans beyond the retention cap were "
                        "aggregated but not kept for the timeline)\n",
                        static_cast<unsigned long long>(P.DroppedSpans));
  return Out;
}

} // namespace greenweb::prof
