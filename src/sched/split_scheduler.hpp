// Block-splitting scheduler (paper Section 5.3):
//
//   "For very large basic blocks, it might be useful to split the basic
//    blocks into smaller sections (containing, say, twenty instructions or
//    less each) and find solutions which are locally optimal. A good
//    heuristic for the split might be to simply partition the list
//    schedule."
//
// Exactly that: the list schedule is cut into windows of
// SearchConfig::split_window instructions; each window is branch-and-bound
// searched to a locally optimal order and unit-group choice *given
// everything already scheduled* (the shared incremental timer carries
// issue times and unit occupancy across the cut), then frozen. Window k's
// instructions can only depend on windows <= k because the list order is
// topological, so any within-window reordering stays globally legal.
//
// Guarantees: the result never needs more NOPs than the plain list
// schedule (each window's search starts from the list order as incumbent),
// and equals the global optimum whenever split_window >= block size: the
// window search branches over each op's unit groups as the global search
// does.
#pragma once

#include "sched/schedule.hpp"
#include "sched/scheduler.hpp"
#include "sched/timing.hpp"

namespace pipesched {

/// SchedulerKind::Split: search the list order window by window from the
/// pipeline state `initial`; initial_nops is the list order's cost from
/// it. λ caps each window's placements; the deadline covers the whole
/// split. stats.completed is true only when one uncut window covers the
/// block: the one case that proves the result optimal. Otherwise it is
/// false with curtail_reason None,
/// and a cut window records Lambda or Deadline. Flushes its stats into
/// the metrics registry once.
ScheduleResult split_schedule(const Machine& machine, const DepGraph& dag,
                              const SearchConfig& config,
                              const PipelineState& initial = {});

}  // namespace pipesched
