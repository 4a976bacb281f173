// In-process sampling profiler with phase attribution, plus a stall
// watchdog and a post-mortem flight recorder.
//
// This is the third leg of the observability stack: traces (trace.hpp)
// answer "what did THIS run do, microsecond by microsecond", metrics
// (metrics.hpp) answer "what has the process done so far", and the
// profiler answers "where does the time actually GO" — the phase-share
// evidence a hot-path rework needs before touching anything.
//
// Design constraints, in order (mirroring the trace/metrics collectors):
//   1. Disabled cost ~0. Profiling is off by default; an inactive
//      PS_PROF_PHASE is one relaxed atomic load and a predictable branch —
//      no clock read, no lock, no allocation. The <2% corpus overhead
//      budget is measured in EXPERIMENTS.md.
//   2. No locks on the hot path when enabled. Each worker thread owns a
//      fixed-depth *phase stack* (a ThreadSlots slot, thread_slots.hpp,
//      written only by that thread): a push is one relaxed frame store
//      plus one release depth store, a pop is one release depth store.
//      No sampling work happens on the worker.
//   3. The sampler never stops workers. A dedicated sampler thread wakes
//      at a configurable rate (default 997 Hz — co-prime with the
//      1,024-expansion deadline/heartbeat tick, so the sampler cannot
//      alias against the search's own periodic work) and reads every
//      registered stack with acquire/relaxed loads. Reads racing a
//      push/pop are race-benign: the sample lands in the caller phase or
//      the callee phase, both of which are true attributions within one
//      frame of the instant sampled (soundness argument in DESIGN.md
//      section 3.8).
//
// Phase names MUST be string literals (or otherwise immortal): the stack
// stores the pointer and the sampler dereferences it asynchronously.
//
// On top of the same background thread sit two post-mortem primitives:
//
//   * Flight recorder: every live search registers a SearchMonitor and
//     sends it a heartbeat (nodes, incumbent, depth, cache traffic) on
//     its 1,024-expansion tick. The monitor pushes the snapshot into its
//     ring buffer UNCONDITIONALLY, tracing on or off, so the last N
//     heartbeats of any search are always available post mortem, and
//     writes the same values as search/* trace counters.
//   * Stall watchdog: when armed (watchdog_enable), the background
//     thread checks every live monitor; a search whose nodes-expanded
//     counter has not advanced for the configured window gets its ring
//     buffer, every thread's phase stack, and a metrics snapshot dumped
//     to stderr and (optionally) a JSON file — the post-mortem evidence
//     the pscd daemon will serve per request.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace pipesched {

/// Fixed phase-stack depth. Deeper nesting is counted (pushes/pops stay
/// balanced) but attributed to the deepest recorded frame; the annotation
/// sites nest at most four deep in practice.
inline constexpr int kProfilerMaxDepth = 8;

namespace prof_detail {

extern std::atomic<bool> g_enabled;

/// One thread's phase stack. Written only by the owning thread; read
/// asynchronously by the sampler. All fields are atomics so the
/// cross-thread reads are defined (and TSan-clean); the ordering contract
/// is documented on ProfPhaseAt.
struct PhaseStack {
  std::atomic<std::uint32_t> depth{0};
  std::atomic<const char*> frames[kProfilerMaxDepth] = {};
};

/// The calling thread's stack, registered on first use; its tid is the
/// registration order.
PhaseStack& local_stack();

}  // namespace prof_detail

/// Is the profiler recording? Inline so the disabled fast path is one
/// relaxed load + branch at every annotation site.
inline bool profiler_enabled() {
  return prof_detail::g_enabled.load(std::memory_order_relaxed);
}

/// The calling thread's phase stack if profiling is on, else nullptr.
/// Hot-loop helper: capture this ONCE per search/solve on the owning
/// thread, then open PS_PROF_PHASE_AT markers against the captured
/// pointer — each costs a test of an ordinary local/member pointer the
/// compiler can keep in a register, instead of a fresh atomic load of
/// the global enable flag per marker. (A search that straddles an
/// enable/disable simply keeps its capture-time behavior: markers
/// against a stale non-null stack stay balanced and merely go
/// unsampled; a null capture attributes the whole search to the
/// enclosing phase.)
inline prof_detail::PhaseStack* profiler_active_stack() {
  return profiler_enabled() ? &prof_detail::local_stack() : nullptr;
}

/// RAII phase marker: the enclosing scope is attributed to `name` (a
/// string literal) in every sample taken while the scope is live, on a
/// stack captured by profiler_active_stack() (null = no-op). Nests: an
/// inner marker's samples collapse as "outer;inner". Must be constructed
/// and destroyed on the stack's owning thread.
class ProfPhaseAt {
 public:
  ProfPhaseAt(prof_detail::PhaseStack* stack, const char* name)
      : stack_(stack) {
    if (stack_ == nullptr) return;
    const std::uint32_t d = stack_->depth.load(std::memory_order_relaxed);
    if (d < kProfilerMaxDepth) {
      stack_->frames[d].store(name, std::memory_order_relaxed);
    }
    // Release: the sampler's acquire read of depth observes the frame
    // store above before it trusts frames[d].
    stack_->depth.store(d + 1, std::memory_order_release);
  }
  ~ProfPhaseAt() {
    if (stack_ == nullptr) return;
    const std::uint32_t d = stack_->depth.load(std::memory_order_relaxed);
    stack_->depth.store(d - 1, std::memory_order_release);
  }
  ProfPhaseAt(const ProfPhaseAt&) = delete;
  ProfPhaseAt& operator=(const ProfPhaseAt&) = delete;

 private:
  prof_detail::PhaseStack* stack_;
};

// Scope-named phase helpers: PS_PROF_PHASE("omega") attributes the
// enclosing scope; PS_PROF_PHASE_AT(stack, "omega") does the same on a
// pre-captured stack. Two-level concat so __LINE__ expands.
#define PS_PROF_CONCAT_INNER(a, b) a##b
#define PS_PROF_CONCAT(a, b) PS_PROF_CONCAT_INNER(a, b)
#define PS_PROF_PHASE_AT(stack, name) \
  ::pipesched::ProfPhaseAt PS_PROF_CONCAT(ps_prof_phase_, __LINE__)(stack, \
                                                                    name)
#define PS_PROF_PHASE(name) \
  PS_PROF_PHASE_AT(::pipesched::profiler_active_stack(), name)

/// Start the sampler thread and begin recording. Resets accumulated
/// samples so one enable..disable session maps to one profile. `hz` is
/// the sampling rate (clamped to [1, 10000]); the 997 Hz default is
/// co-prime with the searches' 1,024-expansion periodic tick.
void profiler_enable(double hz = 997.0);

/// Stop recording and join the sampler thread (no-op when off). Also
/// flushes ps_profile_samples_total{phase=...} counters — one per
/// TOP-LEVEL phase — into the metrics registry when metrics are enabled,
/// so a scraper sees where process time went without parsing files.
void profiler_disable();

/// Drop accumulated samples (thread registrations are kept).
void profiler_clear();

/// One accumulated (thread, phase-path) sample count.
struct ProfileSample {
  std::uint32_t tid = 0;     ///< phase-stack registration id
  std::string path;          ///< "phase;subphase;..." (collapsed form)
  std::uint64_t count = 0;   ///< samples attributed to exactly this path
};

/// Point-in-time copy of the accumulated samples, sorted by (path, tid).
/// Safe to call while the sampler runs (it shares the accumulator lock).
std::vector<ProfileSample> profiler_samples();

/// Total samples attributed to any phase so far this session.
std::uint64_t profiler_total_samples();

/// Sampling period of the current/last session, in seconds (1/hz).
/// Multiply a sample count by this for the estimated wall seconds spent
/// in a phase. 0 before the first enable.
double profiler_sample_period_seconds();

/// Write the accumulated samples in collapsed-stack format — one
/// "phase;subphase count" line per distinct path, counts summed across
/// threads, sorted by path — directly consumable by flamegraph.pl,
/// inferno, or speedscope.
void profiler_write_collapsed(std::ostream& out);

/// File overload; throws pipesched::Error on open/write failure.
void profiler_write_collapsed(const std::string& path);

/// Human phase-share table for `psc --stats` / bench logs: one row per
/// distinct path with sample count, estimated seconds, and percentage of
/// all attributed samples (rows sum to 100%). Empty string when no
/// samples were taken.
std::string profiler_phase_table();

// ---------------------------------------------------------------------
// Flight recorder + stall watchdog
// ---------------------------------------------------------------------

/// One heartbeat snapshot, as the ring keeps it.
struct HeartbeatSnapshot {
  std::uint64_t t_us = 0;        ///< microseconds since monitor creation
  std::uint64_t nodes = 0;       ///< nodes expanded so far (this ledger)
  int incumbent_nops = -1;       ///< current incumbent cost (-1 = none)
  std::uint32_t depth = 0;       ///< current search depth
  double cache_hit_pct = 0;      ///< dominance-cache hit % since previous
};

/// Per-search flight recorder: a ring buffer of the last N heartbeat
/// snapshots plus the progress state the watchdog reads. Registered with
/// the global monitor registry for its whole lifetime (RAII), so the
/// watchdog only ever sees live searches. heartbeat() is called from the
/// search's amortized 1,024-expansion tick (SearchBudget, sched/
/// scheduler.hpp) — a short mutex push, which is uncontended unless the
/// watchdog is reading at that instant.
class SearchMonitor {
 public:
  static constexpr std::size_t kRingCapacity = 64;

  /// Opaque state; lives in the monitor registry (profiler.cpp).
  struct Impl;

  /// `label` names the search in stall dumps ("bnb", "cp", ...); must
  /// outlive the monitor (string literals in practice).
  explicit SearchMonitor(const char* label);
  ~SearchMonitor();
  SearchMonitor(const SearchMonitor&) = delete;
  SearchMonitor& operator=(const SearchMonitor&) = delete;

  /// Record one heartbeat: `incumbent_nops` is -1 while the search has
  /// no schedule, and `cache_probes`/`cache_hits` are the search's running
  /// totals. The cache-hit rate covers the interval since the previous
  /// heartbeat, not the search's lifetime: a cumulative ratio flattens
  /// into a long-run average exactly when a long search is the thing
  /// being diagnosed. The ring push is unconditional (tracing off
  /// included); the same values also go out as the search/* trace
  /// counters, which self-gate. Only the search that owns the monitor
  /// calls it: one writer per monitor.
  void heartbeat(std::uint64_t nodes, int incumbent_nops, std::uint32_t depth,
                 std::uint64_t cache_probes, std::uint64_t cache_hits);

  /// Last N snapshots, oldest first (test/diagnostic view).
  std::vector<HeartbeatSnapshot> ring() const;

  const char* label() const;

 private:
  Impl* impl_;  ///< owned; unregistered and freed in ~SearchMonitor
};

/// Point-in-time view of one live search's flight recorder, as served by
/// the obs HTTP server's /status endpoint.
struct MonitorStatus {
  std::string label;           ///< "bnb", "cp", ... (see SearchMonitor)
  std::uint64_t monitor_id = 0;
  std::vector<HeartbeatSnapshot> ring;  ///< oldest first
};

/// Snapshot every live SearchMonitor (label, id, heartbeat ring), oldest
/// registration first. Lock order is registry -> monitor, identical to
/// the watchdog's stall scan, so a /status read can never deadlock
/// against a concurrent stall dump (DESIGN.md section 3.9).
std::vector<MonitorStatus> search_monitor_statuses();

/// Point-in-time view of one registered thread's phase stack. `path` is
/// the collapsed "a;b;c" form; empty = idle. Stacks only carry frames
/// while the profiler is enabled (markers are enable-gated), so an
/// unprofiled process reports every registered thread as idle.
struct PhaseStackSnapshot {
  std::uint32_t tid = 0;
  std::string path;
};

/// Snapshot every registered thread's phase stack (registration order).
/// Race-benign against concurrent push/pop, like the sampler's reads.
std::vector<PhaseStackSnapshot> profiler_phase_stacks();

/// Arm the stall watchdog: the background monitor thread (shared with the
/// sampler; started on demand) checks every live SearchMonitor, and any
/// search whose nodes-expanded counter has not advanced for `seconds`
/// gets a one-shot stall dump — its heartbeat ring, every registered
/// thread's phase stack, and a metrics snapshot — to stderr and, when
/// `stall_json_path` is non-empty, to that file as JSON.
void watchdog_enable(double seconds, const std::string& stall_json_path = "");

/// Disarm the watchdog (joins the background thread unless the sampler
/// still needs it). Live monitors keep recording heartbeats regardless.
void watchdog_disable();

/// Is the watchdog armed?
bool watchdog_enabled();

/// Number of stall dumps emitted since process start (test hook).
std::uint64_t watchdog_stall_count();

}  // namespace pipesched
