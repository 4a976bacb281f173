#include "sched/cp_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/check.hpp"
#include "util/profiler.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace pipesched {

namespace {

class CpSearch {
 public:
  CpSearch(const Machine& machine, const DepGraph& dag,
           const SearchConfig& config, const PipelineState& initial)
      : machine_(machine),
        dag_(dag),
        config_(config),
        initial_(initial),
        n_(dag.size()),
        live_(dag, config.max_live_registers) {}

  ScheduleResult run() {
    PS_TRACE_SPAN("cp_search");
    PS_PROF_PHASE("cp");
    SearchBudget budget(config_, "cp");
    budget_ = &budget;
    // One enabled-check per solve; dfs()'s per-cycle markers test this
    // plain pointer instead of re-loading the atomic enable flag.
    prof_ = profiler_active_stack();
    Timer wall;
    ScheduleResult result;
    stats_ = &result.stats;
    solve(result);
    if (SearchBudget::observed()) tick();
    budget_ = nullptr;
    stats_ = nullptr;
    result.stats.seconds = wall.seconds();
    flush_search_metrics(result.stats);
    return result;
  }

 private:
  void solve(ScheduleResult& result) {
    SearchStats& stats = result.stats;
    // Seed exactly like the B&B backend: the incumbent returned when the
    // search is curtailed, and the cost the probe range is clipped to.
    std::vector<TupleIndex> seed = seed_order(dag_, config_);
    result.schedule = evaluate_order(machine_, dag_, seed, initial_);
    stats.initial_nops = result.schedule.total_nops();
    stats.best_nops = stats.initial_nops;
    if (n_ == 0) return;
    init_tables(seed);

    if (breaks_register_ceiling(dag_, seed, config_)) {
      // The list seed violates the ceiling, so it is no incumbent (the
      // heartbeats report none) until an order fits. Pressure is a
      // property of the order alone — no timing — so feasibility is
      // decidable once, up front, by a pure order search with a failed
      // placed-set memo. An admissible order both certifies feasibility
      // and replaces the seed, clipping the probe range to a real
      // schedule's cost instead of the constructive cap (which would mean
      // probing ~n*S horizons, each an exhaustive failure, on infeasible
      // instances).
      stats.best_nops = -1;
      PS_PROF_PHASE("pressure_feasibility");
      if (!pressure_feasible_order()) {
        // Proven infeasible (no order fits the ceiling, so no horizon
        // can help) — or curtailed mid-search, in which case
        // completed=false already marks the verdict untrusted. Either
        // way the probe loop has nothing to add.
        stats.feasible = false;
        return;
      }
      seed = order_;
      candidates_by_seed_ = seed;
      result.schedule = evaluate_order(machine_, dag_, seed, initial_);
      stats.initial_nops = result.schedule.total_nops();
      stats.best_nops = stats.initial_nops;
    }
    const int seed_cost = result.schedule.total_nops();
    const int t_lb = makespan_lower_bound();

    // Descend from just below the seed's makespan. Feasibility is
    // monotone in the horizon (any schedule pads upward), so the first
    // infeasible probe proves every lower horizon infeasible too: ONE
    // exhaustive refutation — at one cycle below the optimum — certifies
    // optimality, where an ascending loop would pay one refutation per
    // horizon between the lower bound and the optimum. Each successful
    // probe is a first-completion dive whose cost jumps the next horizon
    // straight to n + cost - 1 ("beat the incumbent by >= one NOP"); a
    // completion meeting t_lb exits without any refutation at all.
    bool found = false;
    std::vector<TupleIndex> best_order;
    std::vector<int> best_group;
    int best_cost = seed_cost;
    for (int horizon = static_cast<int>(n_) + seed_cost - 1;
         horizon >= t_lb;
         horizon = static_cast<int>(n_) + best_cost - 1) {
      reset_probe(horizon);
      bool probe_ok;
      {
        // Pushed once per probe, outside the dfs recursion (markers must
        // never stack with search depth).
        PS_PROF_PHASE("probe_descent");
        probe_ok = dfs(1);
      }
      if (!probe_ok) {
        // A genuine refutation proves the incumbent optimal; a
        // curtailment (completed=false, set by the budget) leaves it
        // standing but unproven. Either way probing is over.
        break;
      }
      found = true;
      best_order = order_;
      best_group = group_of_;
      best_cost = nops_used_;
      stats.best_nops = best_cost;  // keep the heartbeat incumbent honest
      stats.schedules_examined += 1;
      stats.incumbent_improvements += 1;
    }

    if (found) {
      // Replay the best (order, group) decisions through the timing
      // engine for the authoritative Schedule. The timer's cycles are
      // pointwise <= the probe's (it places each instruction as early as
      // its constraints allow), and strictly fewer NOPs would contradict
      // the budget that probe searched under — so the costs must agree.
      PipelineTimer timer(machine_, dag_, initial_);
      for (std::size_t i = 0; i < best_order.size(); ++i) {
        const auto& groups =
            machine_.unit_groups(dag_.block().tuple(best_order[i]).op);
        if (groups.empty()) {
          timer.push(best_order[i]);
        } else {
          timer.push(best_order[i],
                     groups[static_cast<std::size_t>(best_group[i])]);
        }
      }
      result.schedule = timer.snapshot();
      PS_CHECK(result.schedule.total_nops() == best_cost,
               "cp replay cost diverged from the probe");
      stats.feasible = true;
      stats.best_nops = best_cost;
    }
    // Not found: the seed result set up above already describes both the
    // refuted case (seed optimal) and the curtailed case (seed kept as
    // incumbent, completed=false recorded by the budget).
  }

  void init_tables(const std::vector<TupleIndex>& seed) {
    candidates_by_seed_ = seed;
    cycle_of_.assign(n_, -1);
    lat_of_.assign(n_, 0);
    unplaced_preds_base_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      unplaced_preds_base_[i] =
          static_cast<int>(dag_.preds(static_cast<TupleIndex>(i)).size());
    }
    order_.reserve(n_);
    group_of_.reserve(n_);
    prev_last_.reserve(n_);

    last_base_.assign(machine_.pipeline_count(), PipelineState::kUnitIdle);
    for (std::size_t u = 0;
         u < initial_.unit_last_issue.size() && u < last_base_.size(); ++u) {
      last_base_[u] = initial_.unit_last_issue[u];
    }

    // Strong automorphism classes only (see header). The
    // pressure-constrained refinement (operand-ref multiset +
    // result-ness) makes classmates liveness-interchangeable, so the
    // skip stays on under a register ceiling too.
    classes_ = equivalence_classes(machine_, dag_, /*strong=*/true,
                                   /*pressure_constrained=*/true);
    class_count_ = 0;
    for (int c : classes_) class_count_ = std::max(class_count_, c + 1);

    const std::vector<int> heights = latency_heights(machine_, dag_);
    tail_.resize(n_);
    est0_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      const auto index = static_cast<TupleIndex>(i);
      tail_[i] = std::max(
          heights[i], static_cast<int>(n_) - dag_.latest_position(index));
    }
    // Admissible dependence-edge weight: issues of p and a successor are
    // at least max(1, latency(p)) cycles apart, using the cheapest unit
    // alternative for p (the same weight latency_heights uses).
    edge_w_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      edge_w_[i] = std::max(
          1, machine_.latency_for(dag_.block().tuple(static_cast<TupleIndex>(i)).op));
    }
    est_dyn_.assign(n_, 0);
    // est0 in topological (tuple-index) order: preds always precede.
    for (std::size_t i = 0; i < n_; ++i) {
      const auto index = static_cast<TupleIndex>(i);
      int est = std::max(1, dag_.earliest_position(index));
      for (TupleIndex p : dag_.preds(index)) {
        est = std::max(est, est0_[static_cast<std::size_t>(p)] +
                                edge_w_[static_cast<std::size_t>(p)]);
      }
      const auto& units = machine_.pipelines_for(dag_.block().tuple(index).op);
      if (!units.empty()) {
        int avail = std::numeric_limits<int>::max();
        for (PipelineId u : units) {
          avail = std::min(
              avail, std::max(1, last_base_[static_cast<std::size_t>(u)] +
                                     machine_.pipeline(u).enqueue));
        }
        est = std::max(est, avail);
      }
      est0_[i] = est;
    }

    // Capacity propagation tables: ops whose every unit alternative is
    // one fixed pipeline contend for that pipeline's issue slots at
    // enqueue-interval spacing, a demand the horizon must accommodate.
    sole_unit_.assign(n_, kNoPipeline);
    for (std::size_t i = 0; i < n_; ++i) {
      const auto& units =
          machine_.pipelines_for(dag_.block().tuple(static_cast<TupleIndex>(i)).op);
      if (!units.empty() &&
          std::all_of(units.begin(), units.end(),
                      [&](PipelineId u) { return u == units.front(); })) {
        sole_unit_[i] = units.front();
      }
    }
    unit_pending_.assign(machine_.pipeline_count(), 0);
    unit_max_lst_.assign(machine_.pipeline_count(), 0);
  }

  int makespan_lower_bound() const {
    int bound = static_cast<int>(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      bound = std::max(bound, est0_[i] + tail_[i]);
    }
    return bound;
  }

  void reset_probe(int horizon) {
    horizon_ = horizon;
    nop_budget_ = horizon - static_cast<int>(n_);
    nops_used_ = 0;
    failed_states_.clear();
    failed_bytes_ = 0;
    std::fill(cycle_of_.begin(), cycle_of_.end(), -1);
    std::fill(lat_of_.begin(), lat_of_.end(), 0);
    unplaced_preds_ = unplaced_preds_base_;
    last_ = last_base_;
    order_.clear();
    group_of_.clear();
    unit_of_.clear();
    prev_last_.clear();
    live_.reset();
    if (tried_stack_.size() < static_cast<std::size_t>(horizon) + 1) {
      tried_stack_.resize(static_cast<std::size_t>(horizon) + 1,
                          std::vector<char>(class_count_ + 1, 0));
    }
  }

  /// The 1,024-node tick's cold work; run() sends one more at the end of
  /// an observed search. The depth is the pressure walk's or the probe's,
  /// whichever is running: both build their order in order_.
  void tick() {
    budget_->tick(*stats_, stats_->best_nops, order_.size(),
                  stats_->cache_probes, stats_->cache_hits);
  }

  int unit_avail(PipelineId u) const {
    return last_[static_cast<std::size_t>(u)] + machine_.pipeline(u).enqueue;
  }

  /// DP state signature at a node: everything the subtree below cycle c
  /// depends on, relative to c. Placed tuples contribute only their
  /// latency residue (how far past c their result lands — what unplaced
  /// successors' est sees); unplaced ones a marker; units their enqueue
  /// residue. Pressure state is a function of the placed set, which the
  /// placed/unplaced pattern pins down, and nops_used_ is implied by the
  /// cycle and the placed count. The cycle itself is deliberately NOT
  /// part of the key: every constraint below the node is
  /// translation-invariant given the residues, so a completion starting
  /// at a later cycle shifts left to one starting earlier — failure at
  /// cycle c therefore implies failure at every c' >= c, and the memo
  /// stores the minimum failed cycle per residue state.
  std::string state_key(int cycle) const {
    std::string key;
    key.reserve((n_ + machine_.pipeline_count()) * sizeof(int));
    const auto append = [&key](int v) {
      key.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    for (std::size_t i = 0; i < n_; ++i) {
      append(cycle_of_[i] < 0
                 ? -1
                 : std::max(cycle_of_[i] + lat_of_[i] - cycle, 0));
    }
    for (std::size_t u = 0; u < machine_.pipeline_count(); ++u) {
      const auto unit = static_cast<PipelineId>(u);
      append(std::max(last_[u] + machine_.pipeline(unit).enqueue - cycle, 0));
    }
    return key;
  }

  /// Any topological order within the register ceiling? Pure order
  /// search — pressure ignores timing entirely — with a failed
  /// placed-set memo, so the walk is bounded by distinct feasible
  /// prefixes rather than permutations. Leaves an admissible order in
  /// order_ when one exists (and live_ at its end, until reset_probe).
  /// Honors the curtail budgets; on curtailment the budget has marked
  /// the stats and the (false) answer is untrusted.
  bool pressure_feasible_order() {
    std::vector<char> placed(n_, 0);
    std::vector<int> unplaced_preds = unplaced_preds_base_;
    std::unordered_set<std::string> failed;
    return pressure_dfs(placed, unplaced_preds, failed);
  }

  bool pressure_dfs(std::vector<char>& placed, std::vector<int>& unplaced_preds,
                    std::unordered_set<std::string>& failed) {
    if (order_.size() == n_) return true;
    if (budget_->count_node(*stats_)) tick();
    if (budget_->curtail(*stats_)) return false;
    // Live set and remaining uses are functions of the placed *set*, so
    // one failed visit settles every permutation of the prefix.
    std::string key(placed.begin(), placed.end());
    ++stats_->cache_probes;
    if (failed.count(key) != 0) {
      ++stats_->cache_hits;
      ++stats_->pruned_dominance;
      return false;
    }
    for (TupleIndex candidate : candidates_by_seed_) {
      const auto ci = static_cast<std::size_t>(candidate);
      if (placed[ci] || unplaced_preds[ci] != 0) continue;
      if (live_.blocks(candidate)) {
        ++stats_->pruned_pressure;
        continue;
      }
      ++stats_->omega_calls;
      placed[ci] = 1;
      order_.push_back(candidate);
      live_.push(candidate);
      for (TupleIndex succ : dag_.succs(candidate)) {
        --unplaced_preds[static_cast<std::size_t>(succ)];
      }
      if (pressure_dfs(placed, unplaced_preds, failed)) return true;
      for (TupleIndex succ : dag_.succs(candidate)) {
        ++unplaced_preds[static_cast<std::size_t>(succ)];
      }
      live_.pop(candidate);
      order_.pop_back();
      placed[ci] = 0;
      if (!stats_->completed) return false;
    }
    if (stats_->completed &&
        (failed.size() + 1) * n_ <= kSearchMemoBytes) {
      failed.insert(std::move(key));
    }
    return false;
  }

  void place(TupleIndex t, int group, PipelineId unit, int cycle) {
    cycle_of_[static_cast<std::size_t>(t)] = cycle;
    order_.push_back(t);
    group_of_.push_back(group);
    if (unit == kNoPipeline) {
      prev_last_.push_back(0);
    } else {
      lat_of_[static_cast<std::size_t>(t)] = machine_.pipeline(unit).latency;
      prev_last_.push_back(last_[static_cast<std::size_t>(unit)]);
      last_[static_cast<std::size_t>(unit)] = cycle;
    }
    unit_of_.push_back(unit);
    for (TupleIndex succ : dag_.succs(t)) {
      --unplaced_preds_[static_cast<std::size_t>(succ)];
    }
    live_.push(t);
  }

  void unplace() {
    const TupleIndex t = order_.back();
    live_.pop(t);
    for (TupleIndex succ : dag_.succs(t)) {
      ++unplaced_preds_[static_cast<std::size_t>(succ)];
    }
    const PipelineId unit = unit_of_.back();
    if (unit != kNoPipeline) {
      last_[static_cast<std::size_t>(unit)] = prev_last_.back();
      lat_of_[static_cast<std::size_t>(t)] = 0;
    }
    cycle_of_[static_cast<std::size_t>(t)] = -1;
    unit_of_.pop_back();
    prev_last_.pop_back();
    group_of_.pop_back();
    order_.pop_back();
  }

  /// One probe node: fill cycle `c`, or leave it idle. True iff a complete
  /// schedule within the horizon was reached below this node.
  bool dfs(const int cycle) {
    if (order_.size() == n_) return true;
    if (budget_->count_node(*stats_)) tick();
    if (budget_->curtail(*stats_)) return false;

    // Window/propagation pass: every unplaced instruction's dynamic
    // earliest start — propagated through placed predecessors' actual
    // (cycle, latency) and unplaced ones' own earliest starts, in
    // topological tuple-index order — must not overshoot its latest
    // start before the horizon; one whose latest start IS this cycle
    // owns it.
    TupleIndex forced = -1;
    {
      PS_PROF_PHASE_AT(prof_, "propagate");
      std::fill(unit_pending_.begin(), unit_pending_.end(), 0);
      std::fill(unit_max_lst_.begin(), unit_max_lst_.end(), 0);
      for (std::size_t i = 0; i < n_; ++i) {
        if (cycle_of_[i] >= 0) continue;
        int est = std::max(cycle, est0_[i]);
        for (TupleIndex p : dag_.preds(static_cast<TupleIndex>(i))) {
          const auto pi = static_cast<std::size_t>(p);
          est = std::max(est, cycle_of_[pi] >= 0
                                  ? cycle_of_[pi] + lat_of_[pi]
                                  : est_dyn_[pi] + edge_w_[pi]);
        }
        est_dyn_[i] = est;
        const int lst = horizon_ - tail_[i];
        if (est > lst || (lst == cycle && forced >= 0)) {
          ++stats_->pruned_window;
          return false;
        }
        if (lst == cycle) forced = static_cast<TupleIndex>(i);
        if (sole_unit_[i] != kNoPipeline) {
          const auto u = static_cast<std::size_t>(sole_unit_[i]);
          ++unit_pending_[u];
          unit_max_lst_[u] = std::max(unit_max_lst_[u], lst);
        }
      }
      // Capacity propagation: k unplaced ops bound to one unit issue
      // there at enqueue-interval spacing, the first no earlier than the
      // unit frees up, the last no later than the loosest of their
      // windows; an overshoot is a horizon violation (window prune).
      for (std::size_t u = 0; u < unit_pending_.size(); ++u) {
        const int k = unit_pending_[u];
        if (k == 0) continue;
        const auto unit = static_cast<PipelineId>(u);
        const int start = std::max(cycle, unit_avail(unit));
        if (start + (k - 1) * machine_.pipeline(unit).enqueue >
            unit_max_lst_[u]) {
          ++stats_->pruned_window;
          return false;
        }
      }
    }

    // DP memo: permuted prefixes issuing the same tuple set with the same
    // residues share one subtree, so a state that exhaustively failed
    // once fails every time — and, because residues are cycle-relative
    // and completions translate left, a state that failed at cycle c
    // fails at every cycle >= c too (see state_key). Probe-local —
    // feasibility is horizon-dependent, so keys never survive into the
    // next probe.
    std::string state;
    if (config_.dominance_cache) {
      PS_PROF_PHASE_AT(prof_, "memo_probe");
      state = state_key(cycle);
      ++stats_->cache_probes;
      const auto it = failed_states_.find(state);
      if (it != failed_states_.end() && cycle >= it->second) {
        ++stats_->cache_hits;
        ++stats_->pruned_dominance;
        return false;
      }
    }

    std::vector<char>& tried =
        tried_stack_[static_cast<std::size_t>(cycle)];
    std::fill(tried.begin(), tried.end(), 0);

    // True while cycle c is proven better-used than idled: every ready,
    // pressure-admissible candidate can issue right here with all of its
    // units free, so the first instruction of any completion that idles
    // now could instead be moved onto this cycle (see header).
    bool nop_dominated = true;
    // Earliest cycle > c at which some currently blocked (candidate,
    // unit) placement becomes legal — dependence latencies expiring or a
    // busy pipeline freeing up. Nothing becomes issuable strictly
    // between c and this cycle, so idling is branched as one jump.
    int next_event = std::numeric_limits<int>::max();

    for (TupleIndex candidate : candidates_by_seed_) {
      const auto ci = static_cast<std::size_t>(candidate);
      if (cycle_of_[ci] >= 0) continue;
      if (unplaced_preds_[ci] != 0) {
        ++stats_->pruned_readiness;
        continue;
      }
      if (live_.blocks(candidate)) {
        // Exempt from the NOP-dominance condition: pressure depends on
        // the placed set only, so idling never unblocks this candidate.
        ++stats_->pruned_pressure;
        continue;
      }
      int est = 1;
      for (TupleIndex p : dag_.preds(candidate)) {
        const auto pi = static_cast<std::size_t>(p);
        est = std::max(est, cycle_of_[pi] + lat_of_[pi]);
      }
      if (est > cycle) {
        ++stats_->pruned_readiness;
        nop_dominated = false;
        next_event = std::min(next_event, est);
        continue;
      }
      const auto& groups =
          machine_.unit_groups(dag_.block().tuple(candidate).op);
      for (const auto& group : groups) {
        for (PipelineId u : group) {
          if (unit_avail(u) > cycle) {
            nop_dominated = false;
            break;
          }
        }
        if (!nop_dominated) break;
      }
      if (forced >= 0 && candidate != forced) {
        ++stats_->pruned_window;
        continue;
      }
      {
        const auto cls = static_cast<std::size_t>(classes_[ci]);
        if (tried[cls]) {
          ++stats_->pruned_equivalence;
          continue;
        }
        tried[cls] = 1;
      }

      if (groups.empty()) {
        ++stats_->omega_calls;
        place(candidate, -1, kNoPipeline, cycle);
        if (dfs(cycle + 1)) return true;
        unplace();
        if (!stats_->completed) return false;
      } else {
        for (std::size_t g = 0; g < groups.size(); ++g) {
          PipelineId unit = kNoPipeline;
          for (PipelineId u : groups[g]) {
            if (unit_avail(u) <= cycle) {
              unit = u;
              break;
            }
          }
          if (unit == kNoPipeline) {
            ++stats_->pruned_readiness;  // whole group busy this cycle
            for (PipelineId u : groups[g]) {
              next_event = std::min(next_event, unit_avail(u));
            }
            continue;
          }
          ++stats_->omega_calls;
          place(candidate, static_cast<int>(g), unit, cycle);
          if (dfs(cycle + 1)) return true;
          unplace();
          if (!stats_->completed) return false;
        }
      }
    }

    // Idle branch, taken as one jump to the next event: a completion
    // whose first issue falls strictly between c and the event issues
    // something already issuable at c — exchange it onto c (looser
    // successors/unit constraints, no extra NOPs), which the candidate
    // branches above cover. So only the event cycle itself needs a
    // branch, charging one NOP per skipped cycle.
    if (!nop_dominated && next_event != std::numeric_limits<int>::max()) {
      const int skip = next_event - cycle;
      if (forced >= 0) {
        // Idling is suppressed only because `forced` must issue right
        // here to meet the horizon — a window prune, not a dominance.
        ++stats_->pruned_window;
      } else if (next_event > horizon_) {
        ++stats_->pruned_window;
      } else if (nops_used_ + skip > nop_budget_) {
        ++stats_->pruned_alpha_beta;
      } else {
        ++stats_->omega_calls;
        nops_used_ += skip;
        if (dfs(next_event)) return true;
        nops_used_ -= skip;
      }
    }
    // Memoize only exhaustive failures (a curtailed subtree proves
    // nothing), under the same byte budget as the B&B dominance cache.
    // The stored value is the minimum cycle at which these residues
    // failed; updating an existing entry downward costs no new bytes.
    if (config_.dominance_cache && stats_->completed) {
      const auto it = failed_states_.find(state);
      if (it != failed_states_.end()) {
        it->second = std::min(it->second, cycle);
      } else if (failed_bytes_ + state.size() + sizeof(int) <=
                 kSearchMemoBytes) {
        failed_bytes_ += state.size() + sizeof(int);
        failed_states_.emplace(std::move(state), cycle);
      }
    }
    return false;
  }

  const Machine& machine_;
  const DepGraph& dag_;
  const SearchConfig& config_;
  const PipelineState& initial_;
  const std::size_t n_;
  SearchStats* stats_ = nullptr;

  // Derived once per search.
  std::vector<TupleIndex> candidates_by_seed_;
  std::vector<int> classes_;
  int class_count_ = 0;
  std::vector<int> tail_;
  std::vector<int> est0_;
  std::vector<int> edge_w_;   ///< max(1, min latency) per producer
  std::vector<int> est_dyn_;  ///< per-node scratch: propagated earliest starts
  std::vector<int> unplaced_preds_base_;
  std::vector<int> last_base_;

  // Probe state.
  int horizon_ = 0;
  int nop_budget_ = 0;
  int nops_used_ = 0;
  std::vector<int> cycle_of_;
  std::vector<int> lat_of_;  ///< latency of the chosen unit, placed only
  std::vector<int> unplaced_preds_;
  std::vector<int> last_;
  std::vector<TupleIndex> order_;
  std::vector<int> group_of_;
  std::vector<PipelineId> unit_of_;
  std::vector<int> prev_last_;
  std::vector<std::vector<char>> tried_stack_;
  std::unordered_map<std::string, int> failed_states_;
  std::size_t failed_bytes_ = 0;
  std::vector<PipelineId> sole_unit_;
  std::vector<int> unit_pending_;   ///< per-node scratch: sole-unit demand
  std::vector<int> unit_max_lst_;  ///< per-node scratch: loosest window
  LiveValues live_;  ///< register ceiling over order_'s placements

  SearchBudget* budget_ = nullptr;
  prof_detail::PhaseStack* prof_ = nullptr;  ///< captured once per run()
};

}  // namespace

ScheduleResult cp_schedule(const Machine& machine, const DepGraph& dag,
                           const SearchConfig& config,
                           const PipelineState& initial) {
  return CpSearch(machine, dag, config, initial).run();
}

}  // namespace pipesched
