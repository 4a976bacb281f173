// Machine-aware greedy scheduler in the style of Gross [Gro83] /
// Abraham et al. [AbP88] — the heuristic-baseline family the paper's
// optimal search is compared against.
//
// At every step it issues the ready instruction that needs the fewest NOPs
// right now (probed through the incremental timer), breaking ties by DAG
// height then original index. Fast and usually good, but — unlike the
// branch-and-bound scheduler — it can commit to locally-cheap placements
// that force delays later, which is exactly the gap the benchmarks
// quantify.
#pragma once

#include "sched/schedule.hpp"
#include "sched/timing.hpp"

namespace pipesched {

/// Greedy schedule of the block on `machine`. `initial` carries residual
/// pipeline occupancy at block entry.
Schedule greedy_schedule(const Machine& machine, const DepGraph& dag,
                         const PipelineState& initial = {});

}  // namespace pipesched
