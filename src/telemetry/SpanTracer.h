//===- telemetry/SpanTracer.h - Causal span recording -----------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parent-linked span recording over the virtual clock. A span is one
/// contiguous piece of attributable work — an input event's lifetime, a
/// task on a SimThread, a frame's production window, a governor
/// decision — linked to the span that caused it. Producers propagate
/// causality through a single ambient "current span" slot that the
/// simulator saves and restores around every event callback and that
/// SimThread captures at post() time, so spans form a DAG rooted at
/// input events without any producer passing ids around explicitly.
///
/// Spans carry two attribution tags that children inherit from their
/// parent when not set explicitly: \c Root (the FrameTracker RootId of
/// the originating input, 0 for orphans) and \c Frame (the display
/// frame the work belongs to, 0 for off-frame work). Completed spans
/// are mirrored into the telemetry log as \c span records, which is the
/// only representation the offline analyzers (CriticalPath,
/// EnergyAttribution, gw-inspect) consume — in-process and
/// from-artifact diagnoses are therefore identical by construction.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_TELEMETRY_SPANTRACER_H
#define GREENWEB_TELEMETRY_SPANTRACER_H

#include "support/Time.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace greenweb {

class Telemetry;

/// Records parent-linked spans; owned by a Telemetry hub (see file
/// comment). Ids are 1-based and sequential, so a fixed-seed run
/// allocates identical ids.
class SpanTracer {
public:
  /// One piece of attributable work.
  struct Span {
    int64_t Id = 0;     ///< 1-based sequential id (0 = "no span").
    int64_t Parent = 0; ///< Causing span (0 = causal root).
    int64_t Root = 0;   ///< Originating input RootId (0 = orphan).
    int64_t Frame = 0;  ///< Display frame the work serves (0 = none).
    std::string Name;   ///< Task label / stage / "input:<type>"...
    std::string Thread; ///< Track: thread name, "inputs", "frames"...
    TimePoint Begin;
    TimePoint End;
    bool Open = true; ///< Still running (End not meaningful yet).
  };

  /// Sentinel for begin(): parent under the ambient current span.
  static constexpr int64_t UseCurrent = -1;

  explicit SpanTracer(Telemetry *Hub) : Hub(Hub) {}
  SpanTracer(const SpanTracer &) = delete;
  SpanTracer &operator=(const SpanTracer &) = delete;

  /// Tracing switch, independent of the hub's master switch. Disabled
  /// tracing makes begin() return 0 and retains nothing — the mode for
  /// metrics-only sweeps (Telemetry::setLogCapacity(0) turns it off).
  bool tracingEnabled() const { return Enabled; }
  void setTracingEnabled(bool On) { Enabled = On; }

  /// Opens a span beginning now. \p Parent may be an explicit id, 0 for
  /// a causal root, or UseCurrent for the ambient context. Root/Frame
  /// default to the parent's tags when passed as 0. Returns the id, or
  /// 0 when tracing is disabled; the names are copied only when traced,
  /// so callers that build a name check tracingEnabled() first.
  int64_t begin(std::string_view Name, std::string_view Thread,
                int64_t Root = 0, int64_t Frame = 0,
                int64_t Parent = UseCurrent);

  /// Closes \p Id at the current instant and mirrors it into the
  /// telemetry log. No-op for 0, unknown, or already-closed ids.
  void end(int64_t Id);

  /// Re-tags an open span's frame (used to detach aborted frames).
  void setFrame(int64_t Id, int64_t FrameId);

  /// The ambient causal context; setCurrent returns the previous value
  /// so callers can restore it (set/restore discipline, no stack).
  int64_t current() const { return Current; }
  int64_t setCurrent(int64_t Id) {
    int64_t Prev = Current;
    Current = Id;
    return Prev;
  }

  /// All spans begun so far (open and closed), by id order.
  const std::vector<Span> &spans() const { return All; }
  const Span *find(int64_t Id) const;
  size_t openCount() const;

  /// Force-closes every open span at the current instant, mirroring
  /// each with a truncation marker ("open":1) — call before exporting
  /// so work still in flight at session end is visible offline.
  void finishAll();

  void clear();

private:
  Span *findMutable(int64_t Id);

  Telemetry *Hub;
  bool Enabled = true;
  int64_t Current = 0;
  std::vector<Span> All;
};

} // namespace greenweb

#endif // GREENWEB_TELEMETRY_SPANTRACER_H
