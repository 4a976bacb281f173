#include "sched/exhaustive_scheduler.hpp"

#include <utility>

#include "util/check.hpp"
#include "util/timer.hpp"

namespace pipesched {

namespace {

/// Depth-first walk over every legal order, keeping the cheapest. The
/// oracle caps it by a count of complete orders; exhaustive_search() by
/// the SearchBudget the exact backends share.
class Enumeration {
 public:
  Enumeration(const Machine& machine, const DepGraph& dag,
              std::uint64_t max_schedules, SearchBudget* budget,
              const PipelineState& initial = {})
      : dag_(dag),
        timer_(machine, dag, initial),
        unplaced_preds_(dag.size()),
        max_schedules_(max_schedules),
        budget_(budget) {
    for (std::size_t i = 0; i < dag.size(); ++i) {
      unplaced_preds_[i] =
          static_cast<int>(dag.preds(static_cast<TupleIndex>(i)).size());
    }
  }

  void run() {
    descend();
    PS_CHECK(stats_.schedules_examined > 0 || dag_.size() == 0,
             "exhaustive search evaluated no schedule (cap too small?)");
  }

  /// Start from `seed` as the incumbent: a complete order then replaces
  /// it only when strictly cheaper, and each replacement counts as an
  /// incumbent improvement, as under the exact backends.
  void seed_incumbent(Schedule seed) {
    best_nops_ = seed.total_nops();
    best_ = std::move(seed);
  }

  Schedule& best() { return best_; }
  int best_nops() const { return best_nops_; }
  /// omega_calls and schedules_examined both count complete orders.
  const SearchStats& stats() const { return stats_; }

 private:
  /// The first complete order is always evaluated, so a curtailed run
  /// still returns a legal schedule.
  bool budget_left() {
    if (stats_.schedules_examined == 0) return true;
    if (budget_ != nullptr) return !budget_->curtail(stats_);
    return max_schedules_ == 0 || stats_.schedules_examined < max_schedules_;
  }

  void descend() {
    const std::size_t n = dag_.size();
    if (timer_.depth() == n) {
      ++stats_.schedules_examined;
      ++stats_.omega_calls;
      const int mu = timer_.total_nops();
      if (best_nops_ < 0 || mu < best_nops_) {
        if (best_nops_ >= 0) ++stats_.incumbent_improvements;
        best_nops_ = mu;
        best_ = timer_.snapshot();
      }
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!budget_left()) {
        stats_.completed = false;
        return;
      }
      if (unplaced_preds_[i] != 0 ||
          timer_.is_placed(static_cast<TupleIndex>(i))) {
        continue;
      }
      // Ground truth must branch over heterogeneous unit-signature groups
      // exactly like the optimal search (one group for homogeneous ops).
      const auto& groups = timer_.machine().unit_groups(
          dag_.block().tuple(static_cast<TupleIndex>(i)).op);
      const std::size_t branches = groups.empty() ? 1 : groups.size();
      for (std::size_t g = 0; g < branches && budget_left(); ++g) {
        if (groups.empty()) {
          timer_.push(static_cast<TupleIndex>(i));
        } else {
          timer_.push(static_cast<TupleIndex>(i), groups[g]);
        }
        if (budget_ != nullptr && budget_->count_node(stats_)) {
          budget_->tick(stats_, best_nops_, timer_.depth(), 0, 0);
        }
        for (TupleIndex s : dag_.succs(static_cast<TupleIndex>(i))) {
          --unplaced_preds_[static_cast<std::size_t>(s)];
        }
        descend();
        for (TupleIndex s : dag_.succs(static_cast<TupleIndex>(i))) {
          ++unplaced_preds_[static_cast<std::size_t>(s)];
        }
        timer_.pop();
      }
    }
  }

  const DepGraph& dag_;
  PipelineTimer timer_;
  std::vector<int> unplaced_preds_;
  const std::uint64_t max_schedules_;  ///< the oracle's cap (0 = none)
  SearchBudget* const budget_;         ///< null on the oracle path
  Schedule best_;
  int best_nops_ = -1;  // -1 = no complete schedule yet
  SearchStats stats_;
};

}  // namespace

ScheduleResult exhaustive_schedule(const Machine& machine,
                                   const DepGraph& dag,
                                   std::uint64_t max_schedules) {
  Enumeration search(machine, dag, max_schedules, nullptr);
  search.run();
  ScheduleResult result{std::move(search.best()), search.stats()};
  result.stats.best_nops = result.schedule.total_nops();
  return result;
}

ScheduleResult exhaustive_search(const Machine& machine, const DepGraph& dag,
                                 const SearchConfig& config,
                                 const PipelineState& initial) {
  Timer wall;
  // The seed the exact backends start from is the first incumbent, so
  // initial_nops means the same thing under every exact scheduler and a
  // curtailed run never returns a schedule worse than the seed.
  Schedule seed =
      evaluate_order(machine, dag, seed_order(dag, config), initial);
  const int seed_nops = seed.total_nops();
  SearchBudget budget(config, "exhaustive");
  Enumeration search(machine, dag, 0, &budget, initial);
  search.seed_incumbent(std::move(seed));
  search.run();
  if (SearchBudget::observed()) {
    budget.tick(search.stats(), search.best_nops(), 0, 0, 0);
  }
  ScheduleResult result;
  result.schedule = std::move(search.best());
  result.stats = search.stats();
  result.stats.initial_nops = seed_nops;
  result.stats.best_nops = result.schedule.total_nops();
  result.stats.seconds = wall.seconds();
  flush_search_metrics(result.stats);
  return result;
}

}  // namespace pipesched
