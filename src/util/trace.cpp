#include "util/trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <ostream>

#include "util/check.hpp"
#include "util/csv.hpp"  // json_quote
#include "util/thread_slots.hpp"

namespace pipesched {

namespace trace_detail {

std::atomic<bool> g_enabled{false};

namespace {

/// One thread's event stream. Its track id is its registration order,
/// stamped on the events when they are merged.
struct ThreadBuffer {
  std::vector<TraceEvent> events;
  std::string thread_name;
};

struct Collector {
  ThreadSlots<ThreadBuffer> buffers;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

Collector& collector() {
  static Collector* c = new Collector;  // leaked: outlive all worker threads
  return *c;
}

}  // namespace

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - collector().epoch)
          .count());
}

void record(TraceEvent::Phase phase, const char* name, std::uint64_t ts_us,
            std::uint64_t dur_us, double value) {
  TraceEvent& e = collector().buffers.local().events.emplace_back();
  e.name = name;
  e.phase = phase;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.value = value;
}

}  // namespace trace_detail

void trace_enable() {
  if (trace_enabled()) return;
  trace_clear();
  trace_detail::collector().epoch = std::chrono::steady_clock::now();
  trace_detail::g_enabled.store(true, std::memory_order_relaxed);
}

void trace_disable() {
  trace_detail::g_enabled.store(false, std::memory_order_relaxed);
}

void trace_clear() {
  trace_detail::collector().buffers.for_each(
      [](std::uint32_t, trace_detail::ThreadBuffer& buffer) {
        buffer.events.clear();
      });
}

void trace_set_thread_name(const std::string& name) {
  if (!trace_enabled()) return;
  trace_detail::collector().buffers.local().thread_name = name;
}

std::vector<TraceEvent> trace_snapshot() {
  std::vector<TraceEvent> merged;
  trace_detail::collector().buffers.for_each(
      [&](std::uint32_t tid, const trace_detail::ThreadBuffer& buffer) {
        for (const TraceEvent& e : buffer.events) {
          merged.push_back(e);
          merged.back().tid = tid;
        }
      });
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return merged;
}

void trace_write_json(std::ostream& out) {
  // Thread-name metadata first, then the events in timestamp order. The
  // pid is constant (single-process tool); tids are the collector's own
  // per-thread track ids.
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };
  trace_detail::collector().buffers.for_each(
      [&](std::uint32_t tid, const trace_detail::ThreadBuffer& buffer) {
        if (buffer.thread_name.empty()) return;
        sep();
        out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
            << tid << ",\"args\":{\"name\":"
            << json_quote(buffer.thread_name) << "}}";
      });
  for (const TraceEvent& e : trace_snapshot()) {
    sep();
    out << "{\"name\":" << json_quote(e.name) << ",\"pid\":1,\"tid\":"
        << e.tid << ",\"ts\":" << e.ts_us;
    switch (e.phase) {
      case TraceEvent::Phase::Complete:
        out << ",\"ph\":\"X\",\"dur\":" << e.dur_us;
        break;
      case TraceEvent::Phase::Counter:
        out << ",\"ph\":\"C\",\"args\":{\"value\":" << e.value << "}";
        break;
      case TraceEvent::Phase::Instant:
        out << ",\"ph\":\"i\",\"s\":\"t\"";
        break;
    }
    out << "}";
  }
  if (!first) out << "\n";
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

void trace_write_json(const std::string& path) {
  std::ofstream out(path);
  PS_CHECK(out.good(), "cannot open trace file: " << path);
  trace_write_json(out);
  out.flush();
  PS_CHECK(out.good(), "write failure on trace file: " << path);
}

}  // namespace pipesched
