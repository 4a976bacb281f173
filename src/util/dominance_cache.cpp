#include "util/dominance_cache.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace pipesched {

namespace {

/// Smallest table worth allocating: 1024 entries = 24 KiB.
constexpr std::size_t kMinEntries = 1024;

std::size_t floor_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

}  // namespace

ZobristKeys::ZobristKeys(std::size_t elements, std::uint64_t seed) {
  Rng rng(seed);
  keys_.reserve(elements);
  for (std::size_t i = 0; i < elements; ++i) {
    keys_.push_back(rng.next_u64());
  }
}

DominanceCache::ThreadTables& DominanceCache::thread_tables() {
  // Freed when the thread exits, unlike a ThreadSlots slot, which lives as
  // long as the process. claim() gives each table its slots.
  thread_local ThreadTables tables;
  return tables;
}

std::uint16_t DominanceCache::claim(Table& table, std::size_t size) {
  if (table.entries.size() < size) {
    // Free the old slots first: none is live, and a thread then never
    // holds more than a doubling held before. New slots carry tag 0,
    // which no generation takes.
    std::vector<Entry>().swap(table.entries);
    table.entries.resize(size);
  }
  // When the tag wraps, an old slot could match again: clear them once.
  if (++table.generation == 0) {
    std::fill(table.entries.begin(), table.entries.end(), Entry{});
    table.generation = 1;
  }
  return table.generation;
}

DominanceCache::DominanceCache(std::size_t max_bytes)
    : size_(kMinEntries),
      max_entries_(
          std::max(kMinEntries, floor_pow2(max_bytes / sizeof(Entry)))) {
  ThreadTables& tables = thread_tables();
  if (tables.lent) {
    // Another cache on this thread holds the tables: start on a fresh
    // one, whose zero tags never match generation 1.
    own_.assign(kMinEntries, Entry{});
    entries_ = own_.data();
    return;
  }
  generation_ = claim(tables.initial, kMinEntries);
  entries_ = tables.initial.entries.data();
  tables.lent = true;
  lender_ = &tables;
}

DominanceCache::~DominanceCache() {
  if (lender_ != nullptr) {
    // The tables and their generation counts belong to the thread that
    // lent them.
    PS_ASSERT(lender_ == &thread_tables());
    lender_->lent = false;
  }
  // Substrate-level view of cache behavior, distinct from the per-search
  // ps_search_cache_events_total family: these describe the table itself
  // (how full it ran, how much it churned), accumulated as each
  // per-search cache retires.
  if (!metrics_enabled() || stats_.probes == 0) return;
  static Gauge& entries = metrics_gauge(
      "ps_dominance_cache_entries", {},
      "Occupied entries in the most recently retired dominance cache");
  static Gauge& cap = metrics_gauge(
      "ps_dominance_cache_capacity", {},
      "Slot capacity of the most recently retired dominance cache");
  static Counter& inserts = metrics_counter(
      "ps_dominance_cache_inserts_total", {},
      "Entries created across all retired dominance caches");
  static Counter& evictions = metrics_counter(
      "ps_dominance_cache_evictions_total", {},
      "Entries displaced across all retired dominance caches");
  static Counter& superseded = metrics_counter(
      "ps_dominance_cache_superseded_total", {},
      "Cached costs improved in place across all retired caches");
  static Counter& verified_rejects = metrics_counter(
      "ps_dominance_cache_verified_rejects_total", {},
      "Probes whose 64-bit key matched but whose verification word did "
      "not, across all retired caches");
  entries.set(static_cast<double>(used_));
  cap.set(static_cast<double>(size_));
  inserts.add(stats_.inserts);
  evictions.add(stats_.evictions);
  superseded.add(stats_.superseded);
  verified_rejects.add(stats_.verified_rejects);
}

bool DominanceCache::place(Entry* table, std::size_t size,
                           const Entry& e) const {
  const std::size_t mask = size - 1;
  for (std::size_t w = 0; w < kProbeWindow; ++w) {
    Entry& slot = table[(e.key + w) & mask];
    if (slot.generation != e.generation) {
      slot = e;
      return true;
    }
  }
  return false;
}

void DominanceCache::maybe_grow() {
  if (used_ * 2 < size_ || size_ >= max_entries_) return;
  const std::size_t size = size_ * 2;
  Entry* bigger = nullptr;
  std::uint16_t generation = generation_;
  std::vector<Entry> fresh;
  if (lender_ != nullptr) {
    Table& buffer = lender_->growth[next_growth_];
    next_growth_ ^= 1;
    generation = claim(buffer, size);
    bigger = buffer.entries.data();
  } else {
    // A fresh table's zero tags never match a generation, which starts
    // at 1.
    fresh.assign(size, Entry{});
    bigger = fresh.data();
  }
  // In slot order: the counts depend on which entries keep their window.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    if (!live(entries_[i])) continue;
    Entry moved = entries_[i];
    moved.generation = generation;
    if (place(bigger, size, moved)) ++kept;
  }
  // Entries that no longer fit their probe window are simply dropped:
  // the cache is a pruning accelerator, never a correctness requirement.
  stats_.evictions += used_ - kept;
  used_ = kept;
  entries_ = bigger;
  size_ = size;
  generation_ = generation;
  if (lender_ == nullptr) own_.swap(fresh);
}

bool DominanceCache::probe_and_update(std::uint64_t key, std::uint64_t verify,
                                      int depth, int cost) {
  PS_ASSERT(depth >= 0 && depth < (1 << 16));
  ++stats_.probes;

  const std::size_t mask = size_ - 1;
  const auto depth16 = static_cast<std::uint16_t>(depth);
  std::size_t victim = key & mask;
  for (std::size_t w = 0; w < kProbeWindow; ++w) {
    const std::size_t idx = (key + w) & mask;
    Entry& e = entries_[idx];
    if (!live(e)) {
      e = Entry{key, verify, cost, depth16, generation_};
      ++used_;
      ++stats_.misses;
      ++stats_.inserts;
      maybe_grow();
      return false;
    }
    if (e.key == key && e.depth == depth16) {
      if (e.verify == verify) {
        if (e.cost <= cost) {
          ++stats_.hits;
          return true;
        }
        e.cost = cost;
        ++stats_.misses;
        ++stats_.superseded;
        return false;
      }
      // Full-word key collision between two DISTINCT states: treating
      // this entry as a transposition would prune a subtree that is not
      // dominated. Count the near-miss and treat the slot as a stranger;
      // it stays eligible as a replacement victim below.
      ++stats_.verified_rejects;
    }
    // Replacement policy: keep the shallowest states — they guard the
    // largest subtrees — and among equal depths keep the cheaper (stronger
    // dominator). The victim is the most expendable entry in the window.
    const Entry& v = entries_[victim];
    if (e.depth > v.depth || (e.depth == v.depth && e.cost > v.cost)) {
      victim = idx;
    }
  }

  Entry& v = entries_[victim];
  if (v.depth >= depth16) {
    v.key = key;
    v.verify = verify;
    v.cost = cost;
    v.depth = depth16;
    ++stats_.evictions;
  }
  ++stats_.misses;
  return false;
}

}  // namespace pipesched
