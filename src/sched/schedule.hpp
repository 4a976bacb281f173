// Schedule representation shared by every scheduler.
//
// A schedule is a permutation of the block's tuple indices together with
// the NOP padding the timing engine derived for it: eta(i) NOPs
// immediately before the i-th scheduled instruction (Definition 4), total
// mu (Definition 5), and the concrete issue cycle of each instruction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "ir/dag.hpp"
#include "machine/machine.hpp"

namespace pipesched {

struct Schedule {
  std::vector<TupleIndex> order;  ///< Pi: tuple index at each position
  std::vector<int> nops;          ///< eta(i) per position
  std::vector<int> issue_cycle;   ///< t(i): cycle the i-th instruction issues
  std::vector<PipelineId> unit;   ///< pipeline unit chosen per position

  std::size_t size() const { return order.size(); }

  /// mu(Pi): total NOPs required by the schedule.
  int total_nops() const;

  /// Cycle the last instruction issues (n + mu for non-empty schedules).
  int completion_cycle() const;

  /// 1-based position of tuple `t` within the schedule; -1 if absent.
  int position_of(TupleIndex t) const;

  /// Listing with NOPs shown inline, e.g.
  ///   cycle 1: 3: Load #a        [loader]
  ///   cycle 2: NOP
  std::string to_string(const BasicBlock& block, const Machine& machine) const;
};

/// Why a search stopped before exhausting its space (stats.completed ==
/// false). Lambda is the paper's curtail point (Section 2.3); Deadline is
/// the wall-clock budget extension (SearchConfig::deadline_seconds).
enum class CurtailReason { None, Lambda, Deadline };

const char* curtail_reason_name(CurtailReason reason);

/// How a search ended. The paper has two endings: the space is exhausted
/// (termination condition [1], proven optimal) or the curtail point is
/// reached (condition [2], possibly suboptimal). A register ceiling splits
/// each by whether any schedule within it turned up.
enum class SearchOutcome {
  Optimal,     ///< exhausted with a schedule: proven optimal
  Infeasible,  ///< exhausted with none: proven that nothing fits the ceiling
  Curtailed,   ///< a budget ran out, or (curtail_reason None) no
               ///< exhaustive search ran; the schedule may be suboptimal
  NoSchedule,  ///< a budget ran out before any schedule fit the ceiling
};

/// "optimal", "infeasible", "curtailed" or "no_schedule". A corpus
/// roll-up counts each outcome as "<name>_blocks".
const char* search_outcome_name(SearchOutcome outcome);

/// Statistics from one scheduler invocation. Field names follow the
/// paper's Section 4.2.3 terminology.
struct SearchStats {
  /// Lambda: incremental NOP-insertion invocations made during the search
  /// (one per candidate placement attempt; the paper's "calls to omega").
  /// The initial list-schedule evaluation (step [1]) is not counted.
  std::uint64_t omega_calls = 0;

  /// Complete schedules whose cost reached comparison with the incumbent.
  std::uint64_t schedules_examined = 0;

  /// True when the search space was exhausted (termination condition [1]);
  /// false when the curtail point or the wall-clock deadline truncated it
  /// (condition [2]), and when no exhaustive search ran (the heuristic
  /// kinds, and most splits; see split_schedule). `curtail_reason` says
  /// which budget expired, and is None when no exhaustive search ran.
  /// Read the ending through outcome(), which also weighs `feasible`.
  bool completed = true;
  CurtailReason curtail_reason = CurtailReason::None;

  /// NOPs of the seed (list) schedule and of the best schedule found.
  /// A backend reports best_nops = -1 when `feasible` is false: it found
  /// no schedule within the pressure ceiling, so it has no cost to report
  /// (compile_with_register_limit then stores its fallback order's NOPs).
  int initial_nops = 0;
  int best_nops = 0;

  /// With a register-pressure ceiling: whether a complete schedule within
  /// the ceiling was found (true for unconstrained searches).
  bool feasible = true;

  /// Branches killed per pruning rule (numbering follows the header
  /// comment of optimal_scheduler.hpp). Each counter is one candidate
  /// placement (or subtree) that was skipped because the rule fired:
  ///   window [5a]       CP's window kills (est > lst); B&B never counts
  ///                     here, as readiness [5b] subsumes the rule;
  ///   readiness [5b]    candidates with unplaced predecessors;
  ///   equivalence [5c]  candidates whose class was already tried here;
  ///   alpha-beta [6]    partials already costing >= the incumbent;
  ///   lower bound       partials whose admissible completion bound lost;
  ///   dominance         subtrees cut by the transposition cache (always
  ///                     equals cache_hits; duplicated for uniformity);
  ///   pressure          candidates barred by the register ceiling.
  std::uint64_t pruned_window = 0;
  std::uint64_t pruned_readiness = 0;
  std::uint64_t pruned_equivalence = 0;
  std::uint64_t pruned_alpha_beta = 0;
  std::uint64_t pruned_lower_bound = 0;
  std::uint64_t pruned_dominance = 0;
  std::uint64_t pruned_pressure = 0;

  /// Search-tree nodes expanded (descents into a partial schedule,
  /// including the root and complete leaves). With the dominance cache
  /// enabled this can only shrink: cache hits cut whole subtrees.
  std::uint64_t nodes_expanded = 0;

  /// Dominance-cache traffic (all zero when the cache is disabled).
  /// Invariant: cache_hits + cache_misses == cache_probes; every hit is
  /// one pruned subtree.
  std::uint64_t cache_probes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;   ///< entries displaced (budget full)
  std::uint64_t cache_superseded = 0;  ///< cached cost improved in place
  /// Probes whose 64-bit key matched a cached entry but whose independent
  /// verification word did not — real hash collisions between distinct
  /// states, which an unverified cache would have turned into unsound
  /// prunes. Expected to be ~0 in practice; nonzero values are benign
  /// (the probe degrades to a miss) but worth monitoring.
  std::uint64_t cache_verified_rejects = 0;

  /// Times a complete schedule strictly beat the incumbent (the seed's
  /// initial evaluation is not counted).
  std::uint64_t incumbent_improvements = 0;

  double seconds = 0.0;

  /// How the search ended, from the two stored bits.
  SearchOutcome outcome() const {
    if (completed) {
      return feasible ? SearchOutcome::Optimal : SearchOutcome::Infeasible;
    }
    return feasible ? SearchOutcome::Curtailed : SearchOutcome::NoSchedule;
  }
};

/// A Prometheus counter family that per-search counters flush into.
struct SearchCounterFamily {
  const char* name;
  const char* label;  ///< the label that tells its series apart ("" if none)
  const char* help;
};

inline constexpr SearchCounterFamily kPrunedFamily{
    "ps_search_pruned_total", "rule",
    "Branches killed, by pruning rule (see optimal_scheduler.hpp)"};
inline constexpr SearchCounterFamily kCacheEventFamily{
    "ps_search_cache_events_total", "event",
    "Dominance/transposition cache traffic, by event"};

/// One per-search counter of SearchStats and every name it is reported
/// under. Each std::uint64_t member of SearchStats has one row in
/// kSearchCounters, and every consumer outside the backends (the metrics
/// flush, the per-block CSV/JSONL, the corpus summary and roll-up, psc
/// --stats) iterates that table, so a new counter is one member plus one
/// row.
struct SearchCounter {
  std::uint64_t SearchStats::*member;
  const char* key;  ///< CSV/JSONL field; roll-ups add "total_" or "avg_"
  SearchCounterFamily family;
  const char* label;    ///< its series' label value ("" when unlabelled)
  const char* summary;  ///< corpus-summary row; null when not summarized
};

inline constexpr SearchCounter kSearchCounters[] = {
    {&SearchStats::omega_calls, "omega_calls",
     {"ps_search_omega_calls_total", "",
      "Incremental NOP-insertion (omega) invocations"},
     "", "Avg. Omega Calls"},
    {&SearchStats::schedules_examined, "schedules_examined",
     {"ps_search_schedules_examined_total", "",
      "Complete schedules compared against the incumbent"},
     "", nullptr},
    {&SearchStats::nodes_expanded, "nodes_expanded",
     {"ps_search_nodes_expanded_total", "", "Search-tree nodes expanded"},
     "", "Avg. Nodes Expanded"},
    {&SearchStats::incumbent_improvements, "incumbent_improvements",
     {"ps_search_incumbent_improvements_total", "",
      "Times a complete schedule strictly beat the incumbent"},
     "", nullptr},
    {&SearchStats::pruned_window, "pruned_window", kPrunedFamily, "window",
     "Avg. Window Prunes [5a]"},
    {&SearchStats::pruned_readiness, "pruned_readiness", kPrunedFamily,
     "readiness", "Avg. Readiness Prunes [5b]"},
    {&SearchStats::pruned_equivalence, "pruned_equivalence", kPrunedFamily,
     "equivalence", "Avg. Equivalence Prunes [5c]"},
    {&SearchStats::pruned_alpha_beta, "pruned_alpha_beta", kPrunedFamily,
     "alpha_beta", "Avg. Alpha-Beta Prunes [6]"},
    {&SearchStats::pruned_lower_bound, "pruned_lower_bound", kPrunedFamily,
     "lower_bound", "Avg. Lower-Bound Prunes"},
    {&SearchStats::pruned_dominance, "pruned_dominance", kPrunedFamily,
     "dominance", "Avg. Dominance Prunes"},
    {&SearchStats::pruned_pressure, "pruned_pressure", kPrunedFamily,
     "pressure", "Avg. Pressure Prunes"},
    {&SearchStats::cache_probes, "cache_probes", kCacheEventFamily, "probe",
     nullptr},
    {&SearchStats::cache_hits, "cache_hits", kCacheEventFamily, "hit",
     nullptr},
    {&SearchStats::cache_misses, "cache_misses", kCacheEventFamily, "miss",
     nullptr},
    {&SearchStats::cache_evictions, "cache_evictions", kCacheEventFamily,
     "evict", nullptr},
    {&SearchStats::cache_superseded, "cache_superseded", kCacheEventFamily,
     "supersede", nullptr},
    {&SearchStats::cache_verified_rejects, "cache_verified_rejects",
     kCacheEventFamily, "verified_reject", nullptr},
};

inline constexpr std::size_t kSearchCounterCount = std::size(kSearchCounters);

}  // namespace pipesched
