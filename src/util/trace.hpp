// Structured tracing: a thread-safe, low-overhead trace collector that
// exports Chrome trace-event JSON (loadable in chrome://tracing or
// https://ui.perfetto.dev) so a compile, a search, or a whole corpus run
// can be inspected phase by phase on a timeline.
//
// Design constraints, in order:
//   1. Disabled cost ~0. Tracing is off by default; an inactive
//      PS_TRACE_SPAN or trace_counter() call is one relaxed atomic load
//      and one predictable branch — no allocation, no clock read, no
//      lock. The <2% corpus overhead bound is measured in EXPERIMENTS.md.
//   2. No locks on the hot path when enabled. Each thread appends to its
//      own event buffer, a ThreadSlots slot (util/thread_slots.hpp).
//      Buffers are merged at flush.
//   3. Trivially consumable output. Events are the standard trace-event
//      phases: "X" (complete span), "C" (counter), "i" (instant), plus
//      "M" thread-name metadata, with microsecond timestamps relative to
//      the trace epoch.
//
// Threading contract: recording is wait-free per thread, but
// trace_enable()/trace_clear()/trace_write_json()/trace_snapshot() must
// not run concurrently with recording threads (call them before workers
// start or after the pool has drained — the harnesses trace whole corpus
// runs, so flush naturally happens at quiescence). Thread buffers live
// for the process lifetime, so threads that outlive a trace session
// never dangle.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace pipesched {

/// One recorded event (merged, test-visible form).
struct TraceEvent {
  enum class Phase : char {
    Complete,  ///< "X": span with ts + dur
    Counter,   ///< "C": named series sample
    Instant,   ///< "i": point marker
  };
  std::string name;
  Phase phase = Phase::Instant;
  std::uint64_t ts_us = 0;   ///< microseconds since the trace epoch
  std::uint64_t dur_us = 0;  ///< Complete spans only
  double value = 0;          ///< Counter samples only
  std::uint32_t tid = 0;     ///< per-thread track id (registration order)
};

namespace trace_detail {
extern std::atomic<bool> g_enabled;
std::uint64_t now_us();
void record(TraceEvent::Phase phase, const char* name, std::uint64_t ts_us,
            std::uint64_t dur_us, double value);
}  // namespace trace_detail

/// Is the collector recording? Inline so the disabled fast path is one
/// relaxed load + branch at every instrumentation site.
inline bool trace_enabled() {
  return trace_detail::g_enabled.load(std::memory_order_relaxed);
}

/// Start recording. Resets the event buffers and the trace epoch, so a
/// written file always covers one enable..disable session. No-op when
/// already enabled.
void trace_enable();

/// Stop recording; buffered events are kept until the next enable/clear.
void trace_disable();

/// Drop all buffered events (buffers themselves are reused).
void trace_clear();

/// Record one sample of a named counter series ("C" event). The series
/// renders as its own counter track in the viewer.
inline void trace_counter(const char* name, double value) {
  if (!trace_enabled()) return;
  trace_detail::record(TraceEvent::Phase::Counter, name,
                       trace_detail::now_us(), 0, value);
}

/// Record a point marker ("i" event) on the calling thread's track.
inline void trace_instant(const char* name) {
  if (!trace_enabled()) return;
  trace_detail::record(TraceEvent::Phase::Instant, name,
                       trace_detail::now_us(), 0, 0);
}

/// Name the calling thread's track in the viewer (emitted as an "M"
/// thread_name metadata event at flush). No-op while tracing is off.
void trace_set_thread_name(const std::string& name);

/// RAII complete-event span: records [construction, destruction) as one
/// "X" event on the calling thread's track. `name` must outlive the span
/// (string literals in practice). Inactive spans cost one branch each in
/// the constructor and destructor.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (trace_enabled()) {
      name_ = name;
      start_us_ = trace_detail::now_us();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      trace_detail::record(TraceEvent::Phase::Complete, name_, start_us_,
                           trace_detail::now_us() - start_us_, 0);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;  ///< null = tracing was off at entry
  std::uint64_t start_us_ = 0;
};

// Scope-named span helper: PS_TRACE_SPAN("parse") traces the enclosing
// scope. Two-level concat so __LINE__ expands.
#define PS_TRACE_CONCAT_INNER(a, b) a##b
#define PS_TRACE_CONCAT(a, b) PS_TRACE_CONCAT_INNER(a, b)
#define PS_TRACE_SPAN(name) \
  ::pipesched::TraceSpan PS_TRACE_CONCAT(ps_trace_span_, __LINE__)(name)

/// Merge every thread's buffer into one timestamp-sorted event list
/// (quiescence contract above; intended for tests and custom exporters).
std::vector<TraceEvent> trace_snapshot();

/// Write the buffered events as a Chrome trace-event JSON object
/// ({"traceEvents": [...]}) — loadable in chrome://tracing and Perfetto.
/// Includes "M" thread-name metadata for every named track.
void trace_write_json(std::ostream& out);

/// File overload; throws pipesched::Error on open/write failure.
void trace_write_json(const std::string& path);

}  // namespace pipesched
