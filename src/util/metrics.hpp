// Process-wide metrics registry: typed instruments (monotonic counters,
// gauges, log2-bucketed histograms) with static labels, exported as a
// point-in-time Snapshot in Prometheus text exposition format or JSON.
//
// This is the fleet-telemetry counterpart to the trace collector
// (trace.hpp): traces answer "what did THIS run do, microsecond by
// microsecond"; metrics answer "what has the process done so far" in a
// form scrapers, dashboards, and the bench regression gate can consume.
//
// Design constraints, in order (mirroring the trace collector):
//   1. Disabled cost ~0. Metrics are off by default; an inactive add() or
//      observe() is one relaxed atomic load and a predictable branch — no
//      clock read, no lock, no allocation. The <2% corpus overhead budget
//      is measured in EXPERIMENTS.md.
//   2. No locks on the hot path when enabled. Counters and histograms
//      accumulate into per-thread cells (ThreadSlots, thread_slots.hpp):
//      every update after a thread's first is a wait-free relaxed atomic
//      add on that thread's own cell. Gauges are a single relaxed atomic
//      (their writers — e.g. the thread-pool queue depth — are already
//      serialized by the owner's own lock).
//   3. Reads never stop writers. value()/metrics_snapshot() sum the cells
//      with relaxed loads concurrent with updates: each cell is exact,
//      the cross-cell sum is a point-in-time value that may trail
//      in-flight increments by a few — fine for telemetry, and the test
//      suite only asserts exact totals at quiescence.
//
// Identity and lifetime: an instrument is (name, sorted label set). The
// factories return the SAME instrument for a duplicate registration, and
// throw pipesched::Error when the name is reused with a different type or
// violates the Prometheus naming grammar. Instruments live for the
// process lifetime (references never dangle; threads may die freely —
// their cells stay owned by the instrument).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_slots.hpp"

namespace pipesched {

/// Static labels, e.g. {{"rule", "alpha_beta"}}. Sorted by key at
/// registration so {a=1,b=2} and {b=2,a=1} name the same series.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

namespace metrics_detail {

extern std::atomic<bool> g_enabled;

/// One thread's counter cell, cache-line-aligned so two threads' cells
/// never share a line.
struct alignas(64) Cell {
  std::atomic<std::uint64_t> count{0};
};

/// A CAS loop, because atomic<double>::fetch_add is not portable. A cell
/// has a single writer, so it succeeds first try there.
inline void atomic_add_double(std::atomic<double>& a, double d) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

}  // namespace metrics_detail

/// Is the registry recording? Inline so the disabled fast path is one
/// relaxed load + branch at every instrumentation site.
inline bool metrics_enabled() {
  return metrics_detail::g_enabled.load(std::memory_order_relaxed);
}

/// Start recording. Unlike trace_enable() this does NOT clear existing
/// values: metrics are cumulative process totals. Call metrics_reset()
/// for a fresh window (tests do).
void metrics_enable();
void metrics_disable();

/// Zero every registered instrument (registrations are kept).
void metrics_reset();

class MetricsRegistry;

/// Monotonic counter. add() is wait-free per thread after the thread's
/// first touch; value() is the relaxed sum over all threads' cells.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (!metrics_enabled() || n == 0) return;
    cells_.local().count.fetch_add(n, std::memory_order_relaxed);
  }
  void increment() { add(1); }
  std::uint64_t value() const;

 private:
  friend class MetricsRegistry;
  Counter() = default;

  ThreadSlots<metrics_detail::Cell> cells_;
};

/// Last-write-wins gauge (doubles as an up/down counter via add()).
/// A single relaxed atomic: gauge writers are rare and typically already
/// serialized (queue depth is set under the pool mutex), so per-thread
/// sharding would only blur "current value" semantics.
class Gauge {
 public:
  void set(double v) {
    if (!metrics_enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(double d) {
    if (!metrics_enabled()) return;
    metrics_detail::atomic_add_double(value_, d);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0};
};

/// Log2-bucketed histogram over positive doubles (seconds in practice).
/// Bucket k covers (2^(k-1), 2^k]: upper bounds run 2^kMinExp .. 2^kMaxExp
/// (≈0.95us to ~1.1h when observing seconds) plus a +Inf overflow bucket;
/// values <= 2^kMinExp land in the first bucket. Exact boundary values
/// belong to the bucket they bound (le semantics, like Prometheus).
class LogHistogram {
 public:
  static constexpr int kMinExp = -20;
  static constexpr int kMaxExp = 12;
  /// Finite buckets + the +Inf overflow bucket.
  static constexpr int kBuckets = kMaxExp - kMinExp + 2;

  void observe(double value);

  /// Upper bound of bucket `index` (+infinity for the last).
  static double bucket_le(int index);

  /// Index of the bucket `value` falls into.
  static int bucket_index(double value);

  /// Point-in-time totals (non-cumulative per-bucket counts).
  struct Totals {
    std::uint64_t buckets[kBuckets] = {};
    std::uint64_t count = 0;
    double sum = 0;
  };
  Totals totals() const;

 private:
  friend class MetricsRegistry;
  LogHistogram() = default;

  struct alignas(64) HistoCell {
    std::atomic<std::uint64_t> buckets[kBuckets] = {};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0};
  };

  ThreadSlots<HistoCell> cells_;
};

/// Find-or-create factories on the process-wide registry. Thread-safe;
/// intended for one-time registration cached in a static reference:
///   static Counter& c = metrics_counter("ps_foo_total", {}, "what it is");
/// Throws pipesched::Error on an invalid name/label or when `name` is
/// already registered as a different instrument type.
Counter& metrics_counter(const std::string& name,
                         const MetricLabels& labels = {},
                         const std::string& help = "");
Gauge& metrics_gauge(const std::string& name, const MetricLabels& labels = {},
                     const std::string& help = "");
LogHistogram& metrics_histogram(const std::string& name,
                                const MetricLabels& labels = {},
                                const std::string& help = "");

/// Point-in-time export of every registered series, sorted by
/// (name, labels) so successive snapshots diff cleanly.
struct MetricsSnapshot {
  enum class Kind { Counter, Gauge, Histogram };
  struct Series {
    std::string name;
    MetricLabels labels;
    std::string help;
    Kind kind = Kind::Counter;
    double value = 0;  ///< counter (exact integer) or gauge reading
    /// Histogram payload (kind == Histogram only); buckets are CUMULATIVE
    /// counts aligned with LogHistogram::bucket_le(i).
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum = 0;
  };
  std::vector<Series> series;

  /// First series matching (name, labels); null when absent.
  const Series* find(const std::string& name,
                     const MetricLabels& labels = {}) const;

  /// Convenience: counter/gauge value of (name, labels), or 0 when absent.
  double value_or_zero(const std::string& name,
                       const MetricLabels& labels = {}) const;

  /// Prometheus text exposition format (text/plain; version 0.0.4): one
  /// # HELP / # TYPE pair per family, histogram series expanded into
  /// _bucket{le=...}/_sum/_count.
  void write_prometheus(std::ostream& out) const;

  /// JSON: {"counters": [...], "gauges": [...], "histograms": [...]}.
  void write_json(std::ostream& out) const;
};

MetricsSnapshot metrics_snapshot();

/// Prometheus-style quantile estimate from a snapshot histogram series:
/// find the bucket where the q-th observation lands and interpolate
/// linearly within it (log2 buckets, so the estimate is within a factor
/// of 2 of exact — the same accuracy contract Prometheus gives).
/// `q` in [0, 1]; returns NaN for a non-histogram series or zero count,
/// and the largest finite bucket bound when the quantile falls in the
/// +Inf overflow bucket.
double histogram_quantile(const MetricsSnapshot::Series& series, double q);

/// Write a snapshot to `path`, format chosen by extension: ".prom" (or
/// ".txt") = Prometheus text, ".json" = JSON. Throws Error on an unknown
/// extension or write failure.
void metrics_write(const std::string& path);

/// One human line for --stats / corpus summaries, e.g.
/// "metrics: 21 series (14 counters, 2 gauges, 5 histograms)".
std::string metrics_summary_line();

/// RAII stage timer: observes the elapsed seconds into `histogram` at
/// scope exit. Reads the clock only while metrics are enabled, so an
/// inactive timer costs one branch per end of scope.
class MetricTimer {
 public:
  explicit MetricTimer(LogHistogram& histogram)
      : histogram_(metrics_enabled() ? &histogram : nullptr) {
    if (histogram_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~MetricTimer() {
    if (histogram_ != nullptr) {
      histogram_->observe(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start_)
                              .count());
    }
  }
  MetricTimer(const MetricTimer&) = delete;
  MetricTimer& operator=(const MetricTimer&) = delete;

 private:
  LogHistogram* histogram_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace pipesched
