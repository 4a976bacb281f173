#include "sched/split_scheduler.hpp"

#include <algorithm>

#include "sched/list_scheduler.hpp"
#include "util/check.hpp"
#include "util/profiler.hpp"
#include "util/timer.hpp"

namespace pipesched {

namespace {

/// One placement of a window: the tuple and the index of the unit group
/// (Machine::unit_groups of its op) it is pushed on; 0 for a sigma-empty
/// op, which is pushed with no units.
struct WindowStep {
  TupleIndex tuple;
  std::size_t group;
};

/// The units `t` is pushed on in its op's unit group `group`: none for a
/// sigma-empty op.
const std::vector<PipelineId>& group_units(const Machine& machine,
                                           const DepGraph& dag, TupleIndex t,
                                           std::size_t group) {
  static const std::vector<PipelineId> kNoUnits;
  const auto& groups = machine.unit_groups(dag.block().tuple(t).op);
  return groups.empty() ? kNoUnits : groups[group];
}

/// Branch-and-bound over one window of instructions, extending the shared
/// timer, over each instruction's order and unit group as the global
/// search branches. Local alpha-beta: window cost relative to the
/// incumbent window cost; the incumbent is the window in list order, each
/// on its earliest-free unit. Lambda is per window; the deadline, armed
/// once in `budget`, covers the whole split.
class WindowSearch {
 public:
  WindowSearch(const Machine& machine, const DepGraph& dag,
               PipelineTimer& timer, const SearchConfig& config,
               SearchBudget& budget, const std::vector<TupleIndex>& window)
      : machine_(machine),
        dag_(dag),
        timer_(timer),
        config_(config),
        budget_(budget),
        window_(window) {}

  /// Returns the locally optimal window placements; accumulates stats. A
  /// cut window marks stats curtailed and names the budget that ran out.
  std::vector<WindowStep> run(SearchStats& stats) {
    stats_ = &stats;
    lambda_base_ = stats.omega_calls;

    // Incumbent: the window in list order (always legal), each tuple in
    // the group of the unit the timer picks over all its alternatives.
    base_nops_ = timer_.total_nops();
    for (TupleIndex t : window_) {
      timer_.push(t);
      best_order_.push_back({t, group_of(t, timer_.placements().back().unit)});
    }
    best_cost_ = timer_.total_nops() - base_nops_;
    for (std::size_t k = 0; k < window_.size(); ++k) timer_.pop();

    if (best_cost_ > 0) descend();
    return best_order_;
  }

 private:
  /// The index of the group of `t`'s op that holds `unit` (0 when none).
  std::size_t group_of(TupleIndex t, PipelineId unit) const {
    const auto& groups = machine_.unit_groups(dag_.block().tuple(t).op);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (PipelineId u : groups[g]) {
        if (u == unit) return g;
      }
    }
    return 0;
  }

  void descend() {
    if (current_.size() == window_.size()) {
      ++stats_->schedules_examined;
      const int cost = timer_.total_nops() - base_nops_;
      if (cost < best_cost_) {
        best_cost_ = cost;
        best_order_ = current_;
      }
      return;
    }
    for (TupleIndex candidate : window_) {
      if (budget_.curtail(*stats_, lambda_base_)) {
        truncated_ = true;
        return;
      }
      if (timer_.is_placed(candidate)) continue;
      // Readiness: preds in earlier windows are already pushed, preds in
      // this window must be in `current_` — both reduce to is_placed().
      bool ready = true;
      for (TupleIndex p : dag_.preds(candidate)) {
        if (!timer_.is_placed(p)) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;

      const std::size_t branches = std::max<std::size_t>(
          1, machine_.unit_groups(dag_.block().tuple(candidate).op).size());
      for (std::size_t g = 0; g < branches; ++g) {
        if (g > 0 && budget_.curtail(*stats_, lambda_base_)) {
          truncated_ = true;
          return;
        }
        ++stats_->omega_calls;
        if (budget_.count_node(*stats_)) {
          budget_.tick(*stats_, base_nops_ + best_cost_, current_.size(), 0,
                       0);
        }
        timer_.push(candidate, group_units(machine_, dag_, candidate, g));
        current_.push_back({candidate, g});
        const bool keep = !config_.alpha_beta ||
                          timer_.total_nops() - base_nops_ < best_cost_;
        if (keep) descend();
        current_.pop_back();
        timer_.pop();
        if (truncated_) return;
        if (best_cost_ == 0) return;
      }
    }
  }

  const Machine& machine_;
  const DepGraph& dag_;
  PipelineTimer& timer_;
  const SearchConfig& config_;
  SearchBudget& budget_;
  const std::vector<TupleIndex>& window_;
  std::vector<WindowStep> current_;
  std::vector<WindowStep> best_order_;
  int best_cost_ = 0;
  int base_nops_ = 0;
  std::uint64_t lambda_base_ = 0;
  bool truncated_ = false;
  SearchStats* stats_ = nullptr;
};

}  // namespace

ScheduleResult split_schedule(const Machine& machine, const DepGraph& dag,
                              const SearchConfig& config,
                              const PipelineState& initial) {
  PS_CHECK(config.split_window >= 1, "window size must be positive");
  PS_PROF_PHASE("split");
  Timer wall;
  SearchBudget budget(config, "split");
  ScheduleResult result;

  const std::vector<TupleIndex> list_order = list_schedule_order(dag);
  result.stats.initial_nops =
      evaluate_order(machine, dag, list_order, initial).total_nops();

  PipelineTimer timer(machine, dag, initial);
  const std::size_t n = list_order.size();
  const auto width = static_cast<std::size_t>(config.split_window);
  for (std::size_t begin = 0; begin < n; begin += width) {
    const std::size_t end = std::min(n, begin + width);
    const std::vector<TupleIndex> window(
        list_order.begin() + static_cast<std::ptrdiff_t>(begin),
        list_order.begin() + static_cast<std::ptrdiff_t>(end));
    WindowSearch search(machine, dag, timer, config, budget, window);
    for (const WindowStep& step : search.run(result.stats)) {
      timer.push(step.tuple, group_units(machine, dag, step.tuple, step.group));
    }
  }
  // Proven only if one window searched every order and unit group.
  if (n > width) result.stats.completed = false;
  if (SearchBudget::observed()) {
    budget.tick(result.stats, timer.total_nops(), timer.depth(), 0, 0);
  }

  result.schedule = timer.snapshot();
  result.stats.best_nops = result.schedule.total_nops();
  result.stats.seconds = wall.seconds();
  flush_search_metrics(result.stats);
  return result;
}

}  // namespace pipesched
