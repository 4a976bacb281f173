#include "sched/split_scheduler.hpp"

#include <algorithm>

#include "sched/list_scheduler.hpp"
#include "util/check.hpp"
#include "util/profiler.hpp"
#include "util/timer.hpp"

namespace pipesched {

namespace {

/// Branch-and-bound over one window of instructions, extending the shared
/// timer. Local alpha-beta: window cost relative to the incumbent window
/// cost; the incumbent is the window in list order. Lambda is per window;
/// the deadline, armed once in `budget`, covers the whole split.
class WindowSearch {
 public:
  WindowSearch(const DepGraph& dag, PipelineTimer& timer,
               const SearchConfig& config, SearchBudget& budget,
               const std::vector<TupleIndex>& window)
      : dag_(dag),
        timer_(timer),
        config_(config),
        budget_(budget),
        window_(window) {}

  /// Returns the locally optimal window order; accumulates stats. A cut
  /// window marks stats curtailed and names the budget that ran out.
  std::vector<TupleIndex> run(SearchStats& stats) {
    stats_ = &stats;
    lambda_base_ = stats.omega_calls;

    // Incumbent: the window in list order (always legal).
    base_nops_ = timer_.total_nops();
    for (TupleIndex t : window_) timer_.push(t);
    best_cost_ = timer_.total_nops() - base_nops_;
    best_order_ = window_;
    for (std::size_t k = 0; k < window_.size(); ++k) timer_.pop();

    if (best_cost_ > 0) descend();
    return best_order_;
  }

 private:
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

      ++stats_->omega_calls;
      if (budget_.count_node(*stats_)) {
        budget_.tick(*stats_, base_nops_ + best_cost_, current_.size(), 0, 0);
      }
      timer_.push(candidate);
      current_.push_back(candidate);
      const bool keep = !config_.alpha_beta ||
                        timer_.total_nops() - base_nops_ < best_cost_;
      if (keep) descend();
      current_.pop_back();
      timer_.pop();
      if (truncated_) return;
      if (best_cost_ == 0) return;
    }
  }

  const DepGraph& dag_;
  PipelineTimer& timer_;
  const SearchConfig& config_;
  SearchBudget& budget_;
  const std::vector<TupleIndex>& window_;
  std::vector<TupleIndex> current_;
  std::vector<TupleIndex> best_order_;
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
    WindowSearch search(dag, timer, config, budget, window);
    const std::vector<TupleIndex> best = search.run(result.stats);
    for (TupleIndex t : best) timer.push(t);
  }
  // Proven only if one window searched every order and every unit choice
  // (the window search leaves heterogeneous units to the timer).
  if (n > width || machine.has_heterogeneous_alternatives()) {
    result.stats.completed = false;
  }
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
