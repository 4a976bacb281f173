#include "sched/optimal_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "util/bitset.hpp"
#include "util/dominance_cache.hpp"
#include "util/profiler.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace pipesched {

namespace {

// flush_search_metrics, equivalence_classes, and latency_heights moved to
// sched/scheduler.{hpp,cpp}: they are shared by every optimal backend.

constexpr int kInfiniteCost = std::numeric_limits<int>::max() / 2;

/// Seed for the second Zobrist table backing the dominance cache's
/// verification word. Any value different from ZobristKeys' default works;
/// what matters is that the two tables are independently random, so a
/// placed-set collision under one is vanishingly unlikely under both.
constexpr std::uint64_t kVerifyZobristSeed = 0xc0ffee5eedf00d42ull;

/// Bitsets as plain word arrays: bit i lives in word i / 64.
constexpr std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }
constexpr std::uint64_t bit_of(std::size_t i) {
  return std::uint64_t{1} << (i & 63);
}
void set_bit(std::vector<std::uint64_t>& words, std::size_t i) {
  words[i >> 6] |= bit_of(i);
}
void clear_bit(std::vector<std::uint64_t>& words, std::size_t i) {
  words[i >> 6] &= ~bit_of(i);
}

class Search {
 public:
  Search(const Machine& machine, const DepGraph& dag,
         const SearchConfig& config, const PipelineState& initial)
      : machine_(machine),
        dag_(dag),
        config_(config),
        initial_(initial),
        timer_(machine, dag, initial),
        n_(dag.size()),
        classes_(equivalence_classes(machine, dag,
                                     config.strong_equivalence,
                                     config.max_live_registers > 0)),
        max_latency_(machine.max_latency()),
        live_(dag, config.max_live_registers),
        zobrist_(dag.size()),
        zobrist2_(dag.size(), kVerifyZobristSeed) {
    if (config.dominance_cache && n_ > 0) {
      cache_.emplace(kSearchMemoBytes);
    }
  }

  ScheduleResult run() {
    PS_TRACE_SPAN("optimal_search");
    PS_PROF_PHASE("bnb");
    SearchBudget budget(config_, "bnb");
    budget_ = &budget;
    // One enabled-check for the whole search: descend()'s hot-loop
    // markers test this plain pointer instead of the atomic enable flag
    // (measurably cheaper in the ~100ns/placement candidate loop).
    prof_ = profiler_active_stack();
    Timer wall;
    ScheduleResult result;

    // Step [1]: evaluate the seed schedule; it becomes the incumbent pi.
    // Under a ceiling the seed may hold too many values live; the block's
    // own order then stands in when it fits, as it does after
    // compile_block's spill step. Candidates keep the seed's ranks.
    const std::vector<TupleIndex> seed = seed_order(dag_, config_);
    init_from_seed(seed);
    bool fits = true;
    if (breaks_register_ceiling(dag_, seed, config_)) {
      std::vector<TupleIndex> own(n_);
      std::iota(own.begin(), own.end(), TupleIndex{0});
      fits = !breaks_register_ceiling(dag_, own, config_);
      result.schedule =
          evaluate_order(machine_, dag_, fits ? own : seed, initial_);
    } else {
      result.schedule = evaluate_order(machine_, dag_, seed, initial_);
    }
    best_nops_ = result.schedule.total_nops();
    result.stats.initial_nops = best_nops_;
    if (!fits) {
      best_nops_ = kInfiniteCost;
      result.stats.feasible = false;
    }

    best_schedule_ = &result.schedule;
    stats_ = &result.stats;
    if (n_ > 0 && best_nops_ > 0) {
      if (prof_ != nullptr) {
        descend<true>();
      } else {
        descend<false>();
      }
    }
    if (SearchBudget::observed()) tick();
    budget_ = nullptr;
    // An infeasible search found no schedule within the pressure ceiling;
    // the schedule is still the (infeasible) seed, kept for diagnostics,
    // but the reported cost must not look like a real optimum.
    result.stats.best_nops =
        result.stats.feasible ? result.schedule.total_nops() : -1;
    if (cache_) {
      const DominanceCacheStats& cs = cache_->stats();
      result.stats.cache_probes = cs.probes;
      result.stats.cache_hits = cs.hits;
      result.stats.cache_misses = cs.misses;
      result.stats.cache_evictions = cs.evictions;
      result.stats.cache_superseded = cs.superseded;
      result.stats.cache_verified_rejects = cs.verified_rejects;
      result.stats.pruned_dominance = cs.hits;
    }
    result.stats.seconds = wall.seconds();
    flush_search_metrics(result.stats);
    return result;
  }

 private:
  /// Build every per-search table derived from the seed order. The ready
  /// and unplaced sets are bitsets over seed rank, so walking the ready
  /// bits in order visits candidates in the seed's order; the bound's two
  /// arrays are indexed by seed rank too.
  void init_from_seed(const std::vector<TupleIndex>& seed) {
    candidates_by_seed_ = seed;
    info_.resize(n_);
    for (std::size_t r = 0; r < n_; ++r) {
      info_[static_cast<std::size_t>(seed[r])].rank =
          static_cast<std::uint32_t>(r);
    }
    // Latency heights come by tuple; avail_ holds them until they are
    // moved to rank order.
    avail_ = latency_heights(machine_, dag_);
    height_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) height_[info_[i].rank] = avail_[i];
    std::fill(avail_.begin(), avail_.end(), std::numeric_limits<int>::min());

    ready_.assign(words_for(n_), 0);
    unplaced_.assign(words_for(n_), 0);
    if (live_.constrained()) defines_.assign(words_for(n_), 0);
    for (std::size_t i = 0; i < n_; ++i) {
      const auto index = static_cast<TupleIndex>(i);
      const Opcode op = dag_.block().tuple(index).op;
      TupleInfo& info = info_[i];
      info.groups = &machine_.unit_groups(op);
      info.unplaced_preds = static_cast<int>(dag_.preds(index).size());
      info.producer_latency = machine_.latency_for(op);
      set_bit(unplaced_, info.rank);
      if (live_.constrained() && live_.defines(index)) {
        set_bit(defines_, info.rank);
        info.defining = 1;
      }
      if (info.unplaced_preds == 0) {
        set_bit(ready_, info.rank);
        ++ready_count_;
        ready_defining_ += info.defining;
      }
    }

    // Class ids run from 0 to at most n. Rule [5c] can only skip a
    // candidate whose class has a second member; the first row finds one
    // and is cleared again.
    class_words_ = words_for(n_ + 1);
    tried_stack_.assign(n_ * class_words_, 0);
    bool shared_class = false;
    for (const int id : classes_) {
      const auto c = static_cast<std::size_t>(id);
      shared_class = shared_class || (tried_stack_[c >> 6] & bit_of(c)) != 0;
      tried_stack_[c >> 6] |= bit_of(c);
    }
    std::fill_n(tried_stack_.begin(),
                std::min(class_words_, tried_stack_.size()), 0);
    equivalence_ = config_.equivalence_prune && shared_class;
  }

  /// Take `t`, just pushed on the timer, out of the unplaced and ready
  /// sets. A successor whose last unplaced producer was `t` becomes ready
  /// and, when the bound is on, records when its producers' results are
  /// due (DESIGN.md §3.11: the value holds while it stays ready).
  void mark_placed(TupleIndex t) {
    const TupleInfo& info = info_[static_cast<std::size_t>(t)];
    clear_bit(unplaced_, info.rank);
    clear_bit(ready_, info.rank);
    --ready_count_;
    ready_defining_ -= info.defining;
    for (TupleIndex s : dag_.succs(t)) {
      TupleInfo& succ = info_[static_cast<std::size_t>(s)];
      if (--succ.unplaced_preds != 0) continue;
      set_bit(ready_, succ.rank);
      ++ready_count_;
      ready_defining_ += succ.defining;
      if (config_.lower_bound_prune) avail_[succ.rank] = producers_available(s);
    }
  }

  /// Undo mark_placed(t).
  void mark_unplaced(TupleIndex t) {
    for (TupleIndex s : dag_.succs(t)) {
      TupleInfo& succ = info_[static_cast<std::size_t>(s)];
      if (succ.unplaced_preds++ != 0) continue;
      clear_bit(ready_, succ.rank);
      --ready_count_;
      ready_defining_ -= succ.defining;
    }
    const TupleInfo& info = info_[static_cast<std::size_t>(t)];
    set_bit(unplaced_, info.rank);
    set_bit(ready_, info.rank);
    ++ready_count_;
    ready_defining_ += info.defining;
  }

  /// The cycle by which every producer of `t` (all placed) has its result
  /// available, at each producer's minimum latency over unit alternatives.
  int producers_available(TupleIndex t) const {
    int avail = std::numeric_limits<int>::min();
    for (TupleIndex p : dag_.preds(t)) {
      const int latency = info_[static_cast<std::size_t>(p)].producer_latency;
      avail = std::max(avail, timer_.issue_cycle_of(p) + latency);
    }
    return avail;
  }

  /// Flip `t`'s membership in both incremental placed-set hashes (the
  /// primary key and the independent verification word track the same set
  /// through every push and pop).
  void toggle_scheduled(TupleIndex t) {
    scheduled_hash_ ^= zobrist_.key(static_cast<std::size_t>(t));
    scheduled_hash2_ ^= zobrist2_.key(static_cast<std::size_t>(t));
  }

  /// The 1,024-node tick's cold work, kept out of descend(); run() sends
  /// one more at the end of an observed search.
  void tick() {
    std::uint64_t probes = 0;
    std::uint64_t hits = 0;
    if (cache_) {
      probes = cache_->stats().probes;
      hits = cache_->stats().hits;
    }
    budget_->tick(*stats_, best_nops_ < kInfiniteCost ? best_nops_ : -1,
                  timer_.depth(), probes, hits);
  }

  /// Admissible lower bound on the final issue cycle of any completion of
  /// the current partial schedule.
  int completion_lower_bound() const {
    const int t_now = timer_.last_issue_cycle();
    const std::size_t remaining = n_ - timer_.depth();
    int bound = t_now + static_cast<int>(remaining);
    for (std::size_t w = 0; w < ready_.size(); ++w) {
      for (std::uint64_t bits = ready_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t r =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        // Ready instruction: its earliest issue is bounded by its placed
        // producers, and a latency-weighted chain hangs below it.
        const int earliest = std::max(t_now + 1, avail_[r]);
        bound = std::max(bound, earliest + height_[r]);
      }
    }
    return bound;
  }

  /// True when placed tuple `t` still has an unplaced consumer (only then
  /// does its pending latency constrain future placements).
  bool has_unplaced_succ(TupleIndex t) const {
    for (TupleIndex s : dag_.succs(t)) {
      if (!timer_.is_placed(s)) return true;
    }
    return false;
  }

  /// Canonical search-state key: the Zobrist hash of the placed set,
  /// XOR-folded (order-independently) with every timing residue that can
  /// still constrain a future placement, expressed RELATIVE to the next
  /// issue slot t_now + 1 so that transpositions reaching the same
  /// constellation at different absolute cycles still collide:
  ///
  ///   * each unit whose next-accept cycle lies beyond the next slot
  ///     (enqueue conflict residue), as (unit, cycles-beyond);
  ///   * each placed producer whose result becomes available beyond the
  ///     next slot AND is still awaited by an unplaced consumer
  ///     (dependence residue), as (tuple, cycles-beyond).
  ///
  /// Everything else the future cost depends on — ready sets, window
  /// positions, equivalence classes, live-register counts — is a function
  /// of the placed set alone. Two states with equal keys therefore admit
  /// the same completions at the same incremental cost. A bare 64-bit
  /// equality is still not trusted: the same residues are folded through
  /// a second, independent hash family (zobrist2_/hash64_alt) into a
  /// verification word, and the dominance cache requires both words to
  /// match before it prunes (see dominance_cache.hpp).
  struct StateKey {
    std::uint64_t key;
    std::uint64_t verify;
  };

  // A pack holds a unit id or a tuple index in bits 32-47.
  static_assert(kMaxPipelines <= std::size_t{1} << 16);
  static_assert(DepGraph::kMaxBlockTuples <= std::size_t{1} << 16);

  StateKey state_key() const {
    std::uint64_t h = scheduled_hash_;
    std::uint64_t h2 = scheduled_hash2_;
    const int t_next = timer_.last_issue_cycle() + 1;

    for (std::size_t u = 0; u < machine_.pipeline_count(); ++u) {
      const int ready = timer_.unit_ready(static_cast<PipelineId>(u));
      if (ready > t_next) {
        const std::uint64_t pack = (std::uint64_t{1} << 48) |
                                   (static_cast<std::uint64_t>(u) << 32) |
                                   static_cast<std::uint64_t>(ready - t_next);
        h ^= hash64(pack);
        h2 ^= hash64_alt(pack);
      }
    }

    // Placements are in issue order, so only a bounded tail can still
    // carry latency past the next slot.
    const auto& placements = timer_.placements();
    for (std::size_t i = placements.size(); i-- > 0;) {
      const auto& p = placements[i];
      if (p.issue_cycle + max_latency_ <= t_next) break;
      if (p.available <= t_next) continue;
      if (!has_unplaced_succ(p.tuple)) continue;
      const std::uint64_t pack =
          (std::uint64_t{2} << 48) |
          (static_cast<std::uint64_t>(p.tuple) << 32) |
          static_cast<std::uint64_t>(p.available - t_next);
      h ^= hash64(pack);
      h2 ^= hash64_alt(pack);
    }
    return StateKey{h, h2};
  }

  /// The recursion is instantiated twice: kProf=false is the everyday
  /// build with every phase marker constant-folded away (profiling off
  /// must cost nothing in the ~100ns/placement loop), kProf=true carries
  /// the markers. run() picks the instantiation once per search from the
  /// captured prof_ pointer.
  template <bool kProf>
  void descend() {
    if (budget_->count_node(*stats_)) tick();
    if (timer_.depth() == n_) {
      ++stats_->schedules_examined;
      stats_->feasible = true;
      // Alpha-beta guarantees we only reach completion strictly below the
      // incumbent (when enabled); compare anyway for the ablation modes.
      if (timer_.total_nops() < best_nops_) {
        PS_PROF_PHASE_AT(kProf ? prof_ : nullptr, "incumbent_publish");
        best_nops_ = timer_.total_nops();
        *best_schedule_ = timer_.snapshot();
        ++stats_->incumbent_improvements;
      }
      return;
    }

    // Dominance prune: an earlier visit of this exact scheduler state at
    // equal-or-lower partial cost has already explored (or soundly
    // pruned) every completion reachable from here. The incumbent only
    // ever improves, so the earlier visit ran under an equal-or-weaker
    // alpha-beta bound and cannot have cut anything this branch would
    // keep. Equal-cost revisits are pruned too: that discards alternative
    // optima reachable through this state, never all of them.
    if (timer_.depth() > 0 && cache_) {
      PS_PROF_PHASE_AT(kProf ? prof_ : nullptr, "dominance_probe");
      const StateKey sk = state_key();
      if (cache_->probe_and_update(sk.key, sk.verify,
                                   static_cast<int>(timer_.depth()),
                                   timer_.total_nops())) {
        return;
      }
    }

    // Per-depth record of equivalence classes already tried at this slot
    // (rule [5c] only filters alternatives for the *same* position).
    std::uint64_t* tried_classes = nullptr;
    if (equivalence_) {
      tried_classes = &tried_stack_[timer_.depth() * class_words_];
      std::fill_n(tried_classes, class_words_, 0);
    }
    // Section 3.1's pressure test, once for the node: the live count never
    // passes the ceiling, so a candidate is blocked exactly when the count
    // sits at the ceiling and the candidate defines a value.
    const bool full = live_.at_ceiling();

    // The candidates are the ready tuples, in seed order, less the blocked
    // ones when full; every placement below is undone before the next one
    // is sought, so the walk sees this node's sets throughout. Rule [5b]
    // and the pressure test count every tuple they skip that the seed
    // order puts before the rank at which the loop leaves (see
    // leave_candidates). Only a placement and the subtree below it move
    // the budget, so it is checked before the first candidate and after
    // each placed one: exactly where a check before every rank would
    // first see a change.
    if (budget_->curtail(*stats_)) return;
    for (std::size_t w = 0; w < ready_.size(); ++w) {
      // Each candidate's subtree leaves the word as it found it.
      std::uint64_t bits = full ? ready_[w] & ~defines_[w] : ready_[w];
      for (; bits != 0; bits &= bits - 1) {
        const std::size_t rank =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        const TupleIndex candidate = candidates_by_seed_[rank];
        if (equivalence_) {
          // Rule [5c], the per-candidate filter. The marker scope ends
          // before the group loop so the push/descend/undo work below is
          // attributed to its own phases (and never stacks under the
          // recursion).
          PS_PROF_PHASE_AT(kProf ? prof_ : nullptr, "candidate_filter");
          const auto cls = static_cast<std::size_t>(
              classes_[static_cast<std::size_t>(candidate)]);
          if (tried_classes[cls >> 6] & bit_of(cls)) {
            ++stats_->pruned_equivalence;
            continue;
          }
          tried_classes[cls >> 6] |= bit_of(cls);
        }

        // Branch over the candidate's unit-signature groups (footnote 3's
        // generalization): homogeneous ops have exactly one group, so the
        // paper's machines take a single pass here.
        const auto& groups =
            *info_[static_cast<std::size_t>(candidate)].groups;
        const std::size_t branches = groups.empty() ? 1 : groups.size();
        for (std::size_t g = 0; g < branches; ++g) {
          if (budget_->curtail(*stats_)) return leave_candidates(rank, full);
          bool keep = true;
          {
            // Omega's incremental append: the placement itself plus, when
            // rule [6] keeps it, every piece of state pushed alongside it.
            // The rule reads only the timer's NOP count, so a placement it
            // prunes never touches the hashes, the live values or the sets
            // (DESIGN.md §3.11).
            PS_PROF_PHASE_AT(kProf ? prof_ : nullptr, "omega_append");
            ++stats_->omega_calls;
            timer_.push(candidate, groups.empty() ? no_units_ : groups[g]);
            keep = !config_.alpha_beta || timer_.total_nops() < best_nops_;
            if (keep) {
              toggle_scheduled(candidate);
              live_.push(candidate);
              mark_placed(candidate);
            }
          }
          if (!keep) {
            // Rule [6]. Nothing below this placement ran, so the search is
            // neither curtailed nor at zero NOPs: the loop goes on.
            ++stats_->pruned_alpha_beta;
            PS_PROF_PHASE_AT(kProf ? prof_ : nullptr, "omega_undo");
            timer_.pop();
            continue;
          }
          if (config_.lower_bound_prune) {
            PS_PROF_PHASE_AT(kProf ? prof_ : nullptr, "lower_bound");
            if (completion_lower_bound() - static_cast<int>(n_) >=
                best_nops_) {
              keep = false;
              ++stats_->pruned_lower_bound;
            }
          }
          if (keep) descend<kProf>();

          {
            PS_PROF_PHASE_AT(kProf ? prof_ : nullptr, "omega_undo");
            mark_unplaced(candidate);
            live_.pop(candidate);
            toggle_scheduled(candidate);
            timer_.pop();
          }

          // Curtailed deeper in the tree, or nothing can beat zero NOPs.
          if (!stats_->completed || best_nops_ == 0) {
            return leave_candidates(rank, full);
          }
        }
        if (rank + 1 < n_ && budget_->curtail(*stats_)) {
          return leave_candidates(rank + 1, full);
        }
      }
    }
    leave_candidates(n_, full);
  }

  /// The candidate loop leaves at seed rank `rank`: count what it passed
  /// over below that rank. Rule [5b] skipped the waiting tuples (unplaced,
  /// not ready); when the node is `full`, the pressure test skipped the
  /// ready tuples that define a value (DESIGN.md §3.11). Below rank n that
  /// is every such tuple, which the two ready counts give at once.
  void leave_candidates(std::size_t rank, bool full) {
    if (rank == n_) {
      stats_->pruned_readiness += n_ - timer_.depth() - ready_count_;
      if (full) stats_->pruned_pressure += ready_defining_;
      return;
    }
    std::uint64_t waiting = 0;
    std::uint64_t blocked = 0;
    for (std::size_t w = 0; w * 64 < rank; ++w) {
      const std::uint64_t below =
          rank - w * 64 >= 64 ? ~std::uint64_t{0} : bit_of(rank) - 1;
      waiting += static_cast<std::uint64_t>(
          popcount64(unplaced_[w] & ~ready_[w] & below));
      if (full) {
        blocked += static_cast<std::uint64_t>(
            popcount64(ready_[w] & defines_[w] & below));
      }
    }
    stats_->pruned_readiness += waiting;
    stats_->pruned_pressure += blocked;
  }

  const Machine& machine_;
  const DepGraph& dag_;
  const SearchConfig& config_;
  const PipelineState& initial_;
  PipelineTimer timer_;
  const std::size_t n_;
  std::vector<int> classes_;
  const int max_latency_;  ///< machine_.max_latency(), for state_key
  std::vector<TupleIndex> candidates_by_seed_;  ///< seed rank -> tuple
  /// What the candidate loop and the push and undo blocks read per tuple.
  struct TupleInfo {
    /// machine_.unit_groups(op): one entry per unit signature; empty for a
    /// sigma-empty op, which is pushed with no_units_.
    const std::vector<std::vector<PipelineId>>* groups = nullptr;
    std::uint32_t rank = 0;  ///< seed rank
    int unplaced_preds = 0;
    int producer_latency = 0;  ///< latency_for(op)
    std::uint32_t defining = 0;  ///< 1 when it defines a value (ceiling only)
  };
  std::vector<TupleInfo> info_;          ///< per tuple
  /// By seed rank, while ready: when its producers' results are due
  /// (bound only).
  std::vector<int> avail_;
  std::vector<int> height_;  ///< by seed rank: latency height
  const std::vector<PipelineId> no_units_;  ///< a sigma-empty op's units
  std::vector<std::uint64_t> ready_;     ///< bits over seed rank
  std::vector<std::uint64_t> unplaced_;  ///< bits over seed rank
  /// Bits over seed rank: tuples that define a value (ceiling only).
  std::vector<std::uint64_t> defines_;
  std::size_t ready_count_ = 0;     ///< |ready_|
  std::size_t ready_defining_ = 0;  ///< |ready_ & defines_|
  /// One row of class_words_ words per depth: classes tried at that slot.
  std::vector<std::uint64_t> tried_stack_;
  std::size_t class_words_ = 0;
  /// Rule [5c] is on and some class has two members.
  bool equivalence_ = false;
  LiveValues live_;  ///< Section 3.1's register ceiling, when one is set
  ZobristKeys zobrist_;
  ZobristKeys zobrist2_;  // independent table for the verification word
  std::optional<DominanceCache> cache_;
  std::uint64_t scheduled_hash_ = 0;
  std::uint64_t scheduled_hash2_ = 0;
  int best_nops_ = 0;
  Schedule* best_schedule_ = nullptr;
  SearchStats* stats_ = nullptr;
  SearchBudget* budget_ = nullptr;
  prof_detail::PhaseStack* prof_ = nullptr;  ///< this thread's phase stack
                                             ///< (null = profiler off)
};

}  // namespace

ScheduleResult optimal_schedule(const Machine& machine, const DepGraph& dag,
                                const SearchConfig& config,
                                const PipelineState& initial) {
  return Search(machine, dag, config, initial).run();
}

}  // namespace pipesched
