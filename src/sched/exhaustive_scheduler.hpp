// Exhaustive schedule search (paper Section 2.3).
//
// Enumerates every legal topological order of the block, evaluates each
// with the timing engine, and keeps the cheapest. Exponential — usable as
// ground truth for blocks up to a dozen instructions — and the source of
// Table 1's "Pruning Illegal Calls" column (number of legal schedules,
// i.e. the search size after pruning only dependence-violating orders).
#pragma once

#include <cstdint>
#include <optional>

#include "sched/schedule.hpp"
#include "sched/scheduler.hpp"
#include "sched/timing.hpp"

namespace pipesched {

struct ExhaustiveResult {
  Schedule best;
  std::uint64_t schedules_examined = 0;  ///< complete legal orders evaluated
  bool completed = true;                 ///< false if the cap stopped us
};

/// Search every legal order, evaluating at most `max_schedules` complete
/// schedules (0 = unlimited; beware factorial growth).
ExhaustiveResult exhaustive_schedule(const Machine& machine,
                                     const DepGraph& dag,
                                     std::uint64_t max_schedules = 0);

/// Scheduler-interface wrapper. Ground-truth oracle; claims optimality
/// when the enumeration ran to completion. The stats ledger maps
/// evaluated orders onto both schedules_examined and omega_calls (one
/// full timing evaluation each), so config.curtail_lambda caps complete
/// orders; config.deadline_seconds is sampled, and a heartbeat sent,
/// every 1,024 pushes (nodes_expanded), through the SearchBudget the
/// exact backends share. The first complete order is always evaluated.
/// Like the optimal backends, it starts from the residual pipeline state
/// `initial` with the seed order as its incumbent, so a curtailed run
/// never returns a schedule worse than the seed; it reports the seed's
/// NOPs as initial_nops, counts each strict improvement on the incumbent
/// and flushes its stats into the metrics registry. exhaustive_schedule()
/// stays pure enumeration on drained pipelines.
class ExhaustiveScheduler final : public Scheduler {
 public:
  explicit ExhaustiveScheduler(const SearchConfig& config)
      : config_(config) {}

  const char* name() const override { return "exhaustive"; }
  bool claims_optimality() const override { return true; }
  ScheduleResult run(const Machine& machine, const DepGraph& dag,
                     const PipelineState& initial = {}) const override;

 private:
  SearchConfig config_;
};

}  // namespace pipesched
