// Persistent cross-run schedule cache with verified lookups.
//
// Production corpora repeat blocks; the dominance cache dies with each
// search. This tier memoizes whole SOLVED blocks: the canonical form of
// (block DAG + machine semantics + the SearchConfig fields the optimum
// depends on + initial pipeline state) maps to the proven-optimal
// Schedule. Consulted by run_optimal_backend before dispatching a
// backend, so psc, the corpus runner, the program compiler, and the
// benches all share it through SearchConfig::result_cache_path.
//
// Soundness rules, in order of importance:
//
//   1. Only PROVEN results are stored: stats.completed && stats.feasible.
//      A completed search's best_nops is the true optimum regardless of
//      backend or pruning configuration (both backends are exact and
//      every prune is cost-preserving), so a cached entry is valid for
//      any later query with the same canonical form — including queries
//      under different lambda/deadline budgets.
//   2. Lookups are VERIFIED: entries are found by a 64-bit content hash,
//      but the stored canonical form is byte-compared against the query
//      before a hit is returned. A hash collision therefore degrades to
//      a miss (counted as a verified reject), never a wrong schedule.
//   3. The on-disk tier is an append log that can never poison a run: a
//      version-stamped header gates format changes, every record carries
//      a CRC, and corrupt or truncated tails are skipped with a counted
//      warning (ps_result_cache_load_errors) — never a crash.
//
// Concurrency: the in-memory index is sharded by hash with one mutex per
// shard, so concurrent corpus workers rarely contend; disk appends
// serialize on a file mutex and fsync before returning. One process-wide
// instance per path (open_shared) makes every SearchConfig copy carrying
// the same path share one cache.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/dag.hpp"
#include "machine/machine.hpp"
#include "sched/schedule.hpp"
#include "sched/timing.hpp"

namespace pipesched {

struct SearchConfig;

/// Lifetime traffic counters for one ResultCache instance. Invariant:
/// hits + misses == probes; verified_rejects are key-hash matches whose
/// canonical bytes differed (each such probe still resolves to a miss).
struct ResultCacheStats {
  std::uint64_t probes = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t verified_rejects = 0;
  std::uint64_t stores = 0;          ///< records appended to disk
  std::uint64_t load_errors = 0;     ///< corrupt/truncated records skipped
  std::uint64_t entries_loaded = 0;  ///< records replayed from disk on open
};

/// One memoized solved block: the proven-optimal schedule plus the two
/// cost summaries the roll-ups compare exactly. initial_nops is stored so
/// a warm run reports the same seed cost a fresh search would (it is a
/// bench_diff exact field).
struct CachedSchedule {
  int initial_nops = 0;
  int best_nops = 0;
  Schedule schedule;
};

class ResultCache {
 public:
  /// Opens (creating if absent) the append log at `path`, replays every
  /// intact record into the in-memory index, and keeps an fsync'd append
  /// descriptor for stores. Throws pipesched::Error when the path cannot
  /// be opened for appending or the file carries a different format
  /// version — callers (psc) turn that into a clean diagnostic + exit 2.
  explicit ResultCache(std::string path);
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Process-wide instance registry: every open of the same path returns
  /// the same cache, so concurrent corpus workers share one index and
  /// one append descriptor.
  static std::shared_ptr<ResultCache> open_shared(const std::string& path);

  /// Deterministic canonical serialization of everything the optimal
  /// result depends on (see DESIGN.md section 3.7 for the field-by-field
  /// argument). Byte equality of two canonical forms implies the two
  /// queries have the same set of optimal schedules and the same optimum
  /// cost.
  static std::string canonical_form(const Machine& machine,
                                    const DepGraph& dag,
                                    const SearchConfig& config,
                                    const PipelineState& initial);

  /// Verified lookup: returns true and fills `out` only when an entry's
  /// stored canonical form is byte-identical to `canonical`.
  bool lookup(const std::string& canonical, CachedSchedule* out);

  /// Memoize a PROVEN result (caller asserts completed && feasible):
  /// inserts into the in-memory index and appends one fsync'd record to
  /// the log. Duplicate canonicals are dropped (first store wins; any
  /// later duplicate is necessarily an equal-cost optimum).
  void store(const std::string& canonical, const CachedSchedule& result);

  ResultCacheStats stats() const;
  const std::string& path() const { return path_; }
  std::size_t entry_count() const;

  /// Content hash used for bucketing (never trusted for equality).
  static std::uint64_t hash_of(const std::string& canonical);

  /// Test seam: plant an entry in the bucket for `hash` regardless of
  /// `canonical`'s real hash — forces the 64-bit collision case that
  /// verified lookups must reject. Memory-only; nothing hits the disk.
  void debug_insert(std::uint64_t hash, std::string canonical,
                    CachedSchedule payload);

  static constexpr std::uint32_t kFormatVersion = 1;

 private:
  struct Entry {
    std::string canonical;
    CachedSchedule payload;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, std::vector<Entry>> buckets;
  };
  static constexpr std::size_t kShardCount = 16;

  Shard& shard_for(std::uint64_t hash) {
    // High bits pick the shard; unordered_map rehashes the full word, so
    // the two selections never correlate.
    return shards_[(hash >> 60) & (kShardCount - 1)];
  }

  /// Inserts unless an entry with identical canonical bytes exists.
  /// Returns true when the entry was new.
  bool insert_memory(std::uint64_t hash, const std::string& canonical,
                     const CachedSchedule& payload);

  void load_log();
  void append_record(const std::string& canonical,
                     const CachedSchedule& payload);

  std::string path_;
  std::array<Shard, kShardCount> shards_;
  std::mutex file_mutex_;
  int fd_ = -1;

  std::atomic<std::uint64_t> probes_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> verified_rejects_{0};
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> load_errors_{0};
  std::atomic<std::uint64_t> entries_loaded_{0};
};

}  // namespace pipesched
