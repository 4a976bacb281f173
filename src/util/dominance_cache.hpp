// State-dominance (transposition) cache for tree searches.
//
// The branch-and-bound schedule search re-derives the same *scheduler
// state* — set of placed instructions plus residual pipeline timing
// relative to the current cycle — along factorially many permutations of
// the decisions that built it. Any two partial schedules reaching the same
// state admit exactly the same set of completions at exactly the same
// incremental cost, so only the cheapest visit needs its subtree explored:
// a branch arriving at a cached state with equal-or-worse partial cost is
// dominated and can be pruned without discarding any strictly better
// completion (see DESIGN.md for the soundness argument relative to the
// paper's pruning rules [5a]-[5c]/[6]).
//
// This header provides the two generic pieces:
//
//   * ZobristKeys / hash64 — 64-bit incremental hashing material. Each
//     element id gets one fixed random word; a set hashes to the XOR of
//     its members' words, so membership updates are O(1) on push/pop.
//     hash64() folds auxiliary small integers (relative timing residues)
//     into the key order-independently.
//
//   * DominanceCache — a fixed-budget open-addressing hash table mapping
//     (key, depth) -> best partial cost seen. Bounded linear probing with
//     a keep-the-shallowest replacement policy (shallow states guard the
//     largest subtrees); the table starts small and doubles up to the
//     byte budget so tiny searches pay near-zero setup cost. All traffic
//     is counted (probes/hits/misses/inserts/evictions/superseded/
//     verified_rejects) for telemetry. Each thread keeps one initial
//     table and two growth buffers and lends them to one cache at a time;
//     a generation tag, fresh for each search and each growth, marks
//     every slot an earlier search or table size left as empty, so a
//     search neither allocates nor clears its tables (DESIGN.md Section
//     3.12).
//
// Soundness note: a match on the 64-bit key alone is NOT proof that two
// scheduler states are equal — two distinct states colliding on the full
// word would be treated as transpositions of each other, and the cache
// would prune a subtree that is not actually dominated (possibly the only
// one holding the optimum). Every entry therefore also stores a second
// 64-bit verification word computed from an independent hash family
// (hash64_alt over a second Zobrist table); a probe only counts as a
// match when key, depth, AND verification word all agree. A surviving
// 128-bit collision is astronomically unlikely, and a mismatch merely
// degrades to a miss — never an unsound prune.
//
// The cache is deliberately ignorant of schedules: callers define what a
// "state key" means. DominanceCache is not thread-safe; each search owns
// one instance, on the thread that created it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pipesched {

/// Fixed pseudo-random 64-bit word per element id, for XOR set hashing.
class ZobristKeys {
 public:
  explicit ZobristKeys(std::size_t elements,
                       std::uint64_t seed = 0x5eed0fca11ab1e5ull);

  std::uint64_t key(std::size_t id) const { return keys_[id]; }
  std::size_t size() const { return keys_.size(); }

 private:
  std::vector<std::uint64_t> keys_;
};

/// Scramble a word through a splitmix64-style finalizer: distinct inputs
/// map to effectively independent words, so XOR-combining hash64() of
/// several (tag, value) packs builds an order-independent set hash.
inline std::uint64_t hash64(std::uint64_t v) {
  v += 0x9e3779b97f4a7c15ull;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ull;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebull;
  return v ^ (v >> 31);
}

/// Second, independent finalizer (Murmur3 fmix64 constants) for the
/// verification word: an input pair colliding under hash64 has no
/// structural reason to also collide here, so (hash64, hash64_alt)
/// behaves as a 128-bit identity.
inline std::uint64_t hash64_alt(std::uint64_t v) {
  v ^= 0x2545f4914f6cdd1dull;
  v = (v ^ (v >> 33)) * 0xff51afd7ed558ccdull;
  v = (v ^ (v >> 33)) * 0xc4ceb9fe1a85ec53ull;
  return v ^ (v >> 33);
}

/// Traffic counters. Invariants (checked by the test suite):
/// hits + misses == probes; inserts <= misses; superseded <= misses.
/// verified_rejects is not part of the hit/miss partition: a rejected
/// probe still resolves to a miss (the colliding entry is simply not
/// treated as a match).
struct DominanceCacheStats {
  std::uint64_t probes = 0;      ///< probe_and_update calls
  std::uint64_t hits = 0;        ///< dominated: cached cost <= offered cost
  std::uint64_t misses = 0;      ///< state unknown or strictly improved
  std::uint64_t inserts = 0;     ///< new entries created
  std::uint64_t evictions = 0;   ///< entries displaced by replacement
  std::uint64_t superseded = 0;  ///< cached cost improved in place
  std::uint64_t verified_rejects = 0;  ///< key matched, verify word did not
};

class DominanceCache {
 public:
  /// `max_bytes` bounds the table; entries are 24 bytes each (key,
  /// verification word, cost, depth, generation). The table starts at a
  /// small power of two and doubles on demand up to the budget, so
  /// per-search construction cost stays proportional to use.
  explicit DominanceCache(std::size_t max_bytes);
  DominanceCache(const DominanceCache&) = delete;
  DominanceCache& operator=(const DominanceCache&) = delete;

  /// Publishes the cache's lifetime traffic (occupancy, inserts,
  /// evictions, supersedes) to the metrics registry when metrics are
  /// enabled and the cache saw any probes. Caches are per-search, so the
  /// registry accumulates substrate totals across searches.
  ~DominanceCache();

  /// One combined lookup/store at `depth` with partial cost `cost`:
  /// returns true when a cached visit of the same (key, verify, depth)
  /// had equal-or-lower cost — the caller's branch is dominated and
  /// should be pruned. Otherwise records (or improves) the entry and
  /// returns false. `verify` must come from an independent hash family
  /// over the same state (see hash64_alt); a key match with a verify
  /// mismatch is counted as a verified reject and never treated as a hit.
  bool probe_and_update(std::uint64_t key, std::uint64_t verify, int depth,
                        int cost);

  const DominanceCacheStats& stats() const { return stats_; }
  std::size_t capacity() const { return size_; }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t verify = 0;  ///< independent-family word; must also match
    std::int32_t cost = 0;
    std::uint16_t depth = 0;
    std::uint16_t generation = 0;  ///< the slot is empty unless it matches
  };
  static_assert(sizeof(Entry) == 24);

  /// A thread's table: its slots, at least as many as any cache has used
  /// it for, and the generation of its last use.
  struct Table {
    std::vector<Entry> entries;
    std::uint16_t generation = 0;
  };
  /// The calling thread's tables: the initial one, and two growth
  /// buffers that the doublings of one search fill in turn, so a
  /// doubling never reads the buffer it writes.
  struct ThreadTables {
    Table initial;
    Table growth[2];
    bool lent = false;
  };
  static ThreadTables& thread_tables();
  /// The first `size` slots of `table` under a fresh generation, which
  /// leaves every slot an earlier use filled empty.
  static std::uint16_t claim(Table& table, std::size_t size);

  static constexpr std::size_t kProbeWindow = 8;

  bool live(const Entry& e) const { return e.generation == generation_; }
  void maybe_grow();
  bool place(Entry* table, std::size_t size, const Entry& e) const;

  Entry* entries_ = nullptr;  ///< size_ slots, in a thread table or own_
  std::size_t size_ = 0;
  std::size_t max_entries_;
  std::size_t used_ = 0;
  std::uint16_t generation_ = 1;
  /// The thread whose tables entries_ lies in, or null.
  ThreadTables* lender_ = nullptr;
  std::size_t next_growth_ = 0;  ///< the growth buffer the next doubling fills
  /// The table when another cache on this thread holds its tables.
  std::vector<Entry> own_;
  DominanceCacheStats stats_;
};

}  // namespace pipesched
