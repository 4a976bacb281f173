#include "util/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "util/check.hpp"
#include "util/csv.hpp"  // json_quote
#include "util/metrics.hpp"
#include "util/thread_slots.hpp"
#include "util/trace.hpp"

namespace pipesched {

namespace prof_detail {

std::atomic<bool> g_enabled{false};

namespace {

/// All threads' phase stacks, leaked (threads may die while the sampler
/// reads their stacks; the stacks must outlive them both).
ThreadSlots<PhaseStack>& stacks() {
  static auto* s = new ThreadSlots<PhaseStack>;
  return *s;
}

}  // namespace

PhaseStack& local_stack() { return stacks().local(); }

}  // namespace prof_detail

namespace {

using Clock = std::chrono::steady_clock;

/// Accumulated samples: (tid, collapsed path) -> count. Touched only by
/// the sampler thread and by snapshot/clear callers, so one mutex is
/// plenty — the hot worker path never sees it.
struct Accumulator {
  std::mutex mutex;
  std::map<std::pair<std::uint32_t, std::string>, std::uint64_t> counts;
  std::uint64_t total = 0;
};

Accumulator& accumulator() {
  static Accumulator* a = new Accumulator;
  return *a;
}

std::atomic<double> g_sample_period_s{0};
std::atomic<std::uint64_t> g_stall_count{0};

/// Read one thread's phase stack into a collapsed "a;b;c" path. Returns
/// an empty string when the thread is idle (depth 0). A read racing a
/// push/pop attributes the sample to the caller or the callee frame —
/// both truthful within one frame of the sampled instant (DESIGN.md
/// section 3.8).
std::string read_stack_path(const prof_detail::PhaseStack& stack) {
  const std::uint32_t depth = stack.depth.load(std::memory_order_acquire);
  if (depth == 0) return {};
  const std::uint32_t n = std::min<std::uint32_t>(depth, kProfilerMaxDepth);
  std::string path;
  for (std::uint32_t i = 0; i < n; ++i) {
    const char* frame = stack.frames[i].load(std::memory_order_relaxed);
    if (frame == nullptr) break;  // unreachable in practice; stay safe
    if (!path.empty()) path += ';';
    path += frame;
  }
  return path;
}

void take_sample() {
  std::vector<PhaseStackSnapshot> live = profiler_phase_stacks();
  auto& acc = accumulator();
  std::lock_guard lock(acc.mutex);
  for (PhaseStackSnapshot& sample : live) {
    if (sample.path.empty()) continue;
    ++acc.counts[{sample.tid, std::move(sample.path)}];
    ++acc.total;
  }
}

}  // namespace

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

struct SearchMonitor::Impl {
  explicit Impl(const char* label_in) : label(label_in) {
    created = Clock::now();
    last_progress = created;
  }

  /// Re-arm a pooled Impl for a new search. The ring contents are NOT
  /// cleared — ring_size/ring_next gate every read, so stale entries are
  /// unreachable and the 2KB ring is never re-touched wholesale. (The
  /// one-time zero-fill at construction is exactly what the pool below
  /// amortizes away: a fresh Impl per search dirtied ~40 cache lines of
  /// search-hot data on every ~50us corpus block.)
  void reset(const char* label_in) {
    label = label_in;
    prev_probes = 0;
    prev_hits = 0;
    ring_size = 0;
    ring_next = 0;
    created = Clock::now();
    last_progress = created;
    last_nodes = 0;
    dumped = false;
  }

  /// The ring's entries, oldest first. Caller holds `mutex`.
  std::vector<HeartbeatSnapshot> ring_copy() const {
    std::vector<HeartbeatSnapshot> out;
    out.reserve(ring_size);
    const std::size_t start =
        (ring_next + kRingCapacity - ring_size) % kRingCapacity;
    for (std::size_t i = 0; i < ring_size; ++i) {
      out.push_back(ring[(start + i) % kRingCapacity]);
    }
    return out;
  }

  const char* label;
  std::uint64_t id = 0;
  // Cache totals at the previous heartbeat: the hit rate is per interval.
  // Written by the monitor's one writer only, so not under `mutex`.
  std::uint64_t prev_probes = 0;
  std::uint64_t prev_hits = 0;

  mutable std::mutex mutex;
  HeartbeatSnapshot ring[kRingCapacity];
  std::size_t ring_size = 0;
  std::size_t ring_next = 0;
  Clock::time_point created;
  Clock::time_point last_progress;  ///< last time nodes advanced
  std::uint64_t last_nodes = 0;
  bool dumped = false;  ///< one stall dump per monitor

  struct Registry {
    std::mutex mutex;
    std::vector<Impl*> monitors;   ///< live monitors only (RAII)
    std::vector<Impl*> free_pool;  ///< retired Impls kept warm for reuse
    std::uint64_t next_id = 1;
  };
  static Registry& registry() {
    static Registry* r = new Registry;
    return *r;
  }

  /// Pool bound: enough for every plausible set of concurrent searches;
  /// beyond it retired Impls are simply freed.
  static constexpr std::size_t kMaxPooled = 64;
};

SearchMonitor::SearchMonitor(const char* label) {
  auto& reg = Impl::registry();
  std::lock_guard lock(reg.mutex);
  if (!reg.free_pool.empty()) {
    impl_ = reg.free_pool.back();
    reg.free_pool.pop_back();
    impl_->reset(label);
  } else {
    impl_ = new Impl(label);
  }
  impl_->id = reg.next_id++;
  reg.monitors.push_back(impl_);
}

SearchMonitor::~SearchMonitor() {
  auto& reg = Impl::registry();
  Impl* to_free = nullptr;
  {
    std::lock_guard lock(reg.mutex);
    reg.monitors.erase(
        std::remove(reg.monitors.begin(), reg.monitors.end(), impl_),
        reg.monitors.end());
    if (reg.free_pool.size() < Impl::kMaxPooled) {
      reg.free_pool.push_back(impl_);
    } else {
      to_free = impl_;
    }
  }
  delete to_free;
}

void SearchMonitor::heartbeat(std::uint64_t nodes, int incumbent_nops,
                              std::uint32_t depth, std::uint64_t cache_probes,
                              std::uint64_t cache_hits) {
  trace_counter("search/nodes_expanded", static_cast<double>(nodes));
  if (incumbent_nops >= 0) {
    trace_counter("search/incumbent_nops", incumbent_nops);
  }
  double cache_hit_pct = 0;
  if (cache_probes > impl_->prev_probes) {
    cache_hit_pct =
        100.0 * static_cast<double>(cache_hits - impl_->prev_hits) /
        static_cast<double>(cache_probes - impl_->prev_probes);
    trace_counter("search/cache_hit_pct", cache_hit_pct);
    impl_->prev_probes = cache_probes;
    impl_->prev_hits = cache_hits;
  }
  trace_counter("search/depth", static_cast<double>(depth));

  const Clock::time_point now = Clock::now();
  std::lock_guard lock(impl_->mutex);
  HeartbeatSnapshot& slot = impl_->ring[impl_->ring_next];
  slot.t_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                            impl_->created)
          .count());
  slot.nodes = nodes;
  slot.incumbent_nops = incumbent_nops;
  slot.depth = depth;
  slot.cache_hit_pct = cache_hit_pct;
  impl_->ring_next = (impl_->ring_next + 1) % kRingCapacity;
  if (impl_->ring_size < kRingCapacity) ++impl_->ring_size;
  // Heartbeats fire on the search's 1,024-expansion tick, so a heartbeat
  // IS nodes-expanded progress.
  impl_->last_nodes = std::max(impl_->last_nodes, nodes);
  impl_->last_progress = now;
}

std::vector<HeartbeatSnapshot> SearchMonitor::ring() const {
  std::lock_guard lock(impl_->mutex);
  return impl_->ring_copy();
}

const char* SearchMonitor::label() const { return impl_->label; }

std::vector<MonitorStatus> search_monitor_statuses() {
  std::vector<MonitorStatus> out;
  auto& reg = SearchMonitor::Impl::registry();
  // registry -> monitor, the same order check_stalls() takes; a /status
  // scrape and a stall dump can interleave but never deadlock.
  std::lock_guard lock(reg.mutex);
  out.reserve(reg.monitors.size());
  for (const SearchMonitor::Impl* mon : reg.monitors) {
    std::lock_guard mon_lock(mon->mutex);
    MonitorStatus& status = out.emplace_back();
    status.label = mon->label;
    status.monitor_id = mon->id;
    status.ring = mon->ring_copy();
  }
  return out;
}

std::vector<PhaseStackSnapshot> profiler_phase_stacks() {
  std::vector<PhaseStackSnapshot> out;
  prof_detail::stacks().for_each(
      [&](std::uint32_t tid, const prof_detail::PhaseStack& stack) {
        out.push_back({tid, read_stack_path(stack)});
      });
  return out;
}

// ---------------------------------------------------------------------
// Background monitor thread (sampler + watchdog share it)
// ---------------------------------------------------------------------

namespace {

struct MonitorThread {
  std::mutex mutex;
  std::condition_variable cv;
  std::thread thread;
  bool running = false;
  bool stop = false;
  // Sampler config (valid while `sampling`).
  bool sampling = false;
  std::chrono::nanoseconds sample_period{0};
  // Watchdog config (valid while `watchdog`).
  bool watchdog = false;
  double watchdog_seconds = 0;
  std::string stall_path;
};

MonitorThread& monitor_thread() {
  static MonitorThread* m = new MonitorThread;
  return *m;
}

/// Serialize one stall dump as a JSON object (strict json.hpp-parsable).
std::string stall_dump_json(const SearchMonitor::Impl& mon,
                            double seconds_since_progress,
                            std::uint64_t last_nodes,
                            const std::vector<HeartbeatSnapshot>& ring) {
  std::ostringstream out;
  out << "{\"stall\":{\"label\":" << json_quote(mon.label)
      << ",\"monitor_id\":" << mon.id << ",\"seconds_since_progress\":"
      << seconds_since_progress << ",\"last_nodes\":" << last_nodes
      << ",\"ring\":[";
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const HeartbeatSnapshot& hb = ring[i];
    if (i > 0) out << ",";
    out << "{\"t_us\":" << hb.t_us << ",\"nodes\":" << hb.nodes
        << ",\"incumbent_nops\":" << hb.incumbent_nops
        << ",\"depth\":" << hb.depth
        << ",\"cache_hit_pct\":" << hb.cache_hit_pct << "}";
  }
  out << "],\"phase_stacks\":[";
  bool first = true;
  for (const PhaseStackSnapshot& stack : profiler_phase_stacks()) {
    if (!first) out << ",";
    first = false;
    out << "{\"tid\":" << stack.tid << ",\"path\":"
        << json_quote(stack.path) << "}";
  }
  out << "],\"metrics\":";
  if (metrics_enabled()) {
    metrics_snapshot().write_json(out);
  } else {
    out << "null";
  }
  out << "}}\n";
  return out.str();
}

void dump_stall(SearchMonitor::Impl& mon, double seconds_since_progress,
                const std::string& stall_path) {
  std::vector<HeartbeatSnapshot> ring;
  std::uint64_t last_nodes = 0;
  {
    std::lock_guard lock(mon.mutex);
    last_nodes = mon.last_nodes;
    ring = mon.ring_copy();
  }
  std::ostringstream text;
  text << "ps-watchdog: STALL in search '" << mon.label << "' (monitor #"
       << mon.id << "): no nodes-expanded progress for " << std::fixed
       << std::setprecision(1) << seconds_since_progress
       << "s (last nodes=" << last_nodes << ")\n";
  text << "ps-watchdog: last " << ring.size() << " heartbeats"
       << (ring.empty() ? " (none recorded)" : ":") << "\n";
  for (const HeartbeatSnapshot& hb : ring) {
    text << "ps-watchdog:   t=" << hb.t_us << "us nodes=" << hb.nodes
         << " incumbent=" << hb.incumbent_nops << " depth=" << hb.depth
         << " cache_hit_pct=" << std::setprecision(1) << hb.cache_hit_pct
         << "\n";
  }
  for (const PhaseStackSnapshot& stack : profiler_phase_stacks()) {
    text << "ps-watchdog:   thread " << stack.tid << " phase: "
         << (stack.path.empty() ? "(idle)" : stack.path) << "\n";
  }
  if (metrics_enabled()) {
    text << "ps-watchdog: " << metrics_summary_line() << "\n";
  }
  std::cerr << text.str() << std::flush;

  if (!stall_path.empty()) {
    const std::string json =
        stall_dump_json(mon, seconds_since_progress, last_nodes, ring);
    std::ofstream out(stall_path);  // overwrite: latest stall wins
    if (out.good()) {
      out << json;
      out.flush();
    }
    if (out.good()) {
      std::cerr << "ps-watchdog: stall dump written to " << stall_path
                << "\n";
    } else {
      std::cerr << "ps-watchdog: failed to write stall dump to "
                << stall_path << "\n";
    }
  }
  g_stall_count.fetch_add(1, std::memory_order_relaxed);
}

void check_stalls(double watchdog_seconds, const std::string& stall_path) {
  const Clock::time_point now = Clock::now();
  std::vector<std::pair<SearchMonitor::Impl*, double>> stalled;
  {
    auto& reg = SearchMonitor::Impl::registry();
    std::lock_guard lock(reg.mutex);
    for (SearchMonitor::Impl* mon : reg.monitors) {
      std::lock_guard mon_lock(mon->mutex);
      if (mon->dumped) continue;
      const double idle =
          std::chrono::duration<double>(now - mon->last_progress).count();
      if (idle >= watchdog_seconds) {
        mon->dumped = true;
        stalled.emplace_back(mon, idle);
      }
    }
    // Dump while still holding the registry lock: a stalled search is by
    // definition not finishing, but its siblings may be, and the lock
    // keeps every Impl* in `stalled` alive (~SearchMonitor blocks on it).
    for (const auto& [mon, idle] : stalled) {
      dump_stall(*mon, idle, stall_path);
    }
  }
}

void monitor_loop() {
  auto& m = monitor_thread();
  std::unique_lock lock(m.mutex);
  // Absolute-deadline pacing: each tick is scheduled at the previous
  // deadline plus the period, NOT "period after we finished" — otherwise
  // the per-tick work and the OS wakeup latency silently stretch the
  // effective period and every count-times-period estimate undershoots
  // real wall time (measured ~20% at 997 Hz with relative sleeps).
  auto next = std::chrono::steady_clock::now();
  while (!m.stop) {
    std::chrono::nanoseconds period{100 * 1000 * 1000};  // idle fallback
    if (m.sampling) {
      period = m.sample_period;
    } else if (m.watchdog) {
      period = std::min(
          period, std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::duration<double>(m.watchdog_seconds / 4)));
      period = std::max(period, std::chrono::nanoseconds{1000 * 1000});
    }
    next += period;
    const auto now = std::chrono::steady_clock::now();
    if (next < now) {
      // Fell behind (suspended, or a slow dump): skip the lost ticks
      // rather than firing a catch-up burst of samples.
      next = now + period;
    }
    if (m.cv.wait_until(lock, next) == std::cv_status::no_timeout) {
      if (m.stop) break;
      // Woken early (a client toggled sampling/watchdog): rewind this
      // tick and recompute the period instead of sampling ahead of time.
      next -= period;
      continue;
    }
    if (m.stop) break;
    const bool sampling = m.sampling;
    const bool watchdog = m.watchdog;
    const double watchdog_seconds = m.watchdog_seconds;
    const std::string stall_path = m.stall_path;
    lock.unlock();
    if (sampling) take_sample();
    if (watchdog) check_stalls(watchdog_seconds, stall_path);
    lock.lock();
  }
}

/// Start the shared thread if any client (sampler/watchdog) needs it.
/// Caller holds m.mutex.
void ensure_thread_locked(MonitorThread& m) {
  if (m.running) {
    m.cv.notify_all();
    return;
  }
  m.stop = false;
  m.running = true;
  m.thread = std::thread(monitor_loop);
}

/// Join the shared thread once neither client needs it.
void stop_thread_if_idle() {
  auto& m = monitor_thread();
  std::thread to_join;
  {
    std::lock_guard lock(m.mutex);
    if (m.running && !m.sampling && !m.watchdog) {
      m.stop = true;
      m.running = false;
      to_join = std::move(m.thread);
      m.cv.notify_all();
    }
  }
  if (to_join.joinable()) to_join.join();
}

}  // namespace

// ---------------------------------------------------------------------
// Profiler control surface
// ---------------------------------------------------------------------

void profiler_enable(double hz) {
  if (profiler_enabled()) return;
  hz = std::clamp(hz, 1.0, 10000.0);
  profiler_clear();
  g_sample_period_s.store(1.0 / hz, std::memory_order_relaxed);
  {
    auto& m = monitor_thread();
    std::lock_guard lock(m.mutex);
    m.sampling = true;
    m.sample_period = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double>(1.0 / hz));
    ensure_thread_locked(m);
  }
  prof_detail::g_enabled.store(true, std::memory_order_relaxed);
}

void profiler_disable() {
  if (!prof_detail::g_enabled.exchange(false, std::memory_order_relaxed)) {
    return;
  }
  {
    auto& m = monitor_thread();
    std::lock_guard lock(m.mutex);
    m.sampling = false;
  }
  stop_thread_if_idle();
  // Publish per-top-level-phase sample counts as metrics. The family is
  // only registered when there is something to publish, so a profiler-off
  // process never grows a ps_profile_* series (tests assert this).
  if (!metrics_enabled()) return;
  std::map<std::string, std::uint64_t> by_phase;
  {
    auto& acc = accumulator();
    std::lock_guard lock(acc.mutex);
    for (const auto& [key, count] : acc.counts) {
      const std::string& path = key.second;
      by_phase[path.substr(0, path.find(';'))] += count;
    }
  }
  for (const auto& [phase, count] : by_phase) {
    metrics_counter("ps_profile_samples_total", {{"phase", phase}},
                    "Profiler samples attributed to each top-level phase")
        .add(count);
  }
}

void profiler_clear() {
  auto& acc = accumulator();
  std::lock_guard lock(acc.mutex);
  acc.counts.clear();
  acc.total = 0;
}

std::vector<ProfileSample> profiler_samples() {
  std::vector<ProfileSample> out;
  {
    auto& acc = accumulator();
    std::lock_guard lock(acc.mutex);
    out.reserve(acc.counts.size());
    for (const auto& [key, count] : acc.counts) {
      ProfileSample& s = out.emplace_back();
      s.tid = key.first;
      s.path = key.second;
      s.count = count;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ProfileSample& a, const ProfileSample& b) {
              if (a.path != b.path) return a.path < b.path;
              return a.tid < b.tid;
            });
  return out;
}

std::uint64_t profiler_total_samples() {
  auto& acc = accumulator();
  std::lock_guard lock(acc.mutex);
  return acc.total;
}

double profiler_sample_period_seconds() {
  return g_sample_period_s.load(std::memory_order_relaxed);
}

namespace {

/// Per-path counts summed across threads, insertion-sorted by path.
std::map<std::string, std::uint64_t> collapsed_counts() {
  std::map<std::string, std::uint64_t> merged;
  auto& acc = accumulator();
  std::lock_guard lock(acc.mutex);
  for (const auto& [key, count] : acc.counts) merged[key.second] += count;
  return merged;
}

}  // namespace

void profiler_write_collapsed(std::ostream& out) {
  for (const auto& [path, count] : collapsed_counts()) {
    out << path << " " << count << "\n";
  }
}

void profiler_write_collapsed(const std::string& path) {
  std::ofstream out(path);
  PS_CHECK(out.good(), "cannot open profile file: " << path);
  profiler_write_collapsed(out);
  out.flush();
  PS_CHECK(out.good(), "write failure on profile file: " << path);
}

std::string profiler_phase_table() {
  const std::map<std::string, std::uint64_t> merged = collapsed_counts();
  std::uint64_t total = 0;
  for (const auto& [path, count] : merged) total += count;
  if (total == 0) return {};

  std::vector<std::pair<std::string, std::uint64_t>> rows(merged.begin(),
                                                          merged.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });

  std::size_t width = 5;  // "phase"
  for (const auto& [path, count] : rows) {
    width = std::max(width, path.size());
  }
  const double period = profiler_sample_period_seconds();

  std::ostringstream out;
  out << "  " << std::left << std::setw(static_cast<int>(width)) << "phase"
      << std::right << std::setw(10) << "samples" << std::setw(10)
      << "est_s" << std::setw(8) << "share" << "\n";
  for (const auto& [path, count] : rows) {
    out << "  " << std::left << std::setw(static_cast<int>(width)) << path
        << std::right << std::setw(10) << count << std::setw(10)
        << std::fixed << std::setprecision(3)
        << static_cast<double>(count) * period << std::setw(7)
        << std::setprecision(1)
        << 100.0 * static_cast<double>(count) / static_cast<double>(total)
        << "%\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------
// Watchdog control surface
// ---------------------------------------------------------------------

void watchdog_enable(double seconds, const std::string& stall_json_path) {
  PS_CHECK(seconds > 0, "watchdog window must be positive: " << seconds);
  auto& m = monitor_thread();
  std::lock_guard lock(m.mutex);
  m.watchdog = true;
  m.watchdog_seconds = seconds;
  m.stall_path = stall_json_path;
  ensure_thread_locked(m);
}

void watchdog_disable() {
  {
    auto& m = monitor_thread();
    std::lock_guard lock(m.mutex);
    m.watchdog = false;
  }
  stop_thread_if_idle();
}

bool watchdog_enabled() {
  auto& m = monitor_thread();
  std::lock_guard lock(m.mutex);
  return m.watchdog;
}

std::uint64_t watchdog_stall_count() {
  return g_stall_count.load(std::memory_order_relaxed);
}

}  // namespace pipesched
