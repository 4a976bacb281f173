// Machine-independent list scheduler (paper Section 3.2, [ZaD90]-style).
//
// Produces the seed schedule for the branch-and-bound search: tuples are
// arranged so the distance between each instruction and the instructions
// that depend on it is as large as possible. The heuristic never consults
// the pipeline tables — the paper notes the initial schedule is independent
// of the target pipeline structure — so it ranks purely on DAG shape:
// ready instructions are issued in order of
//   1. greater unit-weight height (longest chain still hanging below it),
//   2. more transitive descendants,
//   3. lower original tuple index (determinism).
// Interleaving the tallest chains first is what stretches producer-to-
// consumer distances.
#pragma once

#include "sched/schedule.hpp"
#include "sched/timing.hpp"

namespace pipesched {

/// Order the block's tuples by the list heuristic (no timing information).
std::vector<TupleIndex> list_schedule_order(const DepGraph& dag);

/// Convenience: list order evaluated against `machine` (fills NOPs).
/// `initial` carries residual pipeline occupancy at block entry.
Schedule list_schedule(const Machine& machine, const DepGraph& dag,
                       const PipelineState& initial = {});

}  // namespace pipesched
