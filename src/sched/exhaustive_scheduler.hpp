// Exhaustive schedule search (paper Section 2.3).
//
// Enumerates every legal topological order of the block, evaluates each
// with the timing engine, and keeps the cheapest. Exponential — usable as
// ground truth for blocks up to a dozen instructions — and the source of
// Table 1's "Pruning Illegal Calls" column (number of legal schedules,
// i.e. the search size after pruning only dependence-violating orders).
#pragma once

#include <cstdint>

#include "sched/schedule.hpp"
#include "sched/scheduler.hpp"
#include "sched/timing.hpp"

namespace pipesched {

/// The ground-truth oracle: search every legal order from drained
/// pipelines, evaluating at most `max_schedules` complete schedules (0 =
/// unlimited; beware factorial growth). stats.schedules_examined (equal
/// to stats.omega_calls) counts the complete orders evaluated, and
/// stats.completed is false when the cap stopped the enumeration.
ScheduleResult exhaustive_schedule(const Machine& machine,
                                   const DepGraph& dag,
                                   std::uint64_t max_schedules = 0);

/// SchedulerKind::Exhaustive: the same enumeration, run like an exact
/// backend, and optimal when stats.completed is true. The stats ledger
/// maps evaluated orders onto both schedules_examined and omega_calls
/// (one full timing evaluation each), so config.curtail_lambda caps
/// complete orders; config.deadline_seconds is sampled, and a heartbeat
/// sent, every 1,024 pushes (nodes_expanded), through the SearchBudget
/// the exact backends share. The first complete order is always
/// evaluated. It starts from the residual pipeline state `initial` with
/// the seed order as its incumbent, so a curtailed run never returns a
/// schedule worse than the seed; it reports the seed's NOPs as
/// initial_nops, counts each strict improvement on the incumbent and
/// flushes its stats into the metrics registry.
ScheduleResult exhaustive_search(const Machine& machine, const DepGraph& dag,
                                 const SearchConfig& config,
                                 const PipelineState& initial = {});

}  // namespace pipesched
