// Optimality-preserving branch-and-bound schedule search — the paper's
// prime contribution (Section 4.2.3).
//
// The search walks partial schedules Phi depth-first, extending each by
// one ready instruction at a time through the incremental timing engine.
// Candidates at each depth are tried in seed-schedule order, so the first
// descent reproduces the list schedule and seeds the alpha-beta bound with
// a good incumbent. Pruning rules, each individually toggleable so the
// ablation bench can price them:
//
//   readiness  [5b]  only instructions whose predecessors are all placed
//                    (this subsumes the window rule [5a]: an instruction
//                    forced into the slot being filled is then the only
//                    ready one, see DESIGN.md §3);
//   equivalence[5c]  at a given depth, at most one candidate per
//                    equivalence class is tried. The paper's literal rule
//                    classes together instructions with sigma = empty and
//                    rho = empty; the optional *strong* rule classes
//                    instructions with identical pipeline set, identical
//                    predecessor set and identical successor set (a DAG
//                    automorphism, so provably cost-preserving);
//   alpha-beta [6]   a partial schedule already costing >= the incumbent
//                    cannot improve (eta never decreases);
//   lower bound      (extension, off by default) latency-weighted critical
//                    path of the unscheduled suffix, admissible, prunes
//                    partials whose best possible completion cannot beat
//                    the incumbent;
//   dominance cache  (extension, on by default) transposition pruning: the
//                    canonical search state — set of placed instructions
//                    plus pipeline/producer timing residue relative to the
//                    current cycle — is Zobrist-hashed into a bounded
//                    cache; a branch reaching a cached state at equal-or-
//                    worse partial cost is dominated, because the earlier,
//                    cheaper visit admits exactly the same completions at
//                    the same incremental cost (soundness argument in
//                    DESIGN.md).
//
// On machines with heterogeneous alternative units (the general Section
// 4.1 model footnote 3 excludes) each candidate placement additionally
// branches over the opcode's unit-signature groups, so the unit choice is
// part of the optimized decision; homogeneous machines degenerate to a
// single pass and behave exactly as the paper's algorithm.
//
// The curtail point lambda (Section 2.3) bounds worst-case compile time:
// the search stops after lambda candidate placements (the paper's Lambda
// counter of step [4]) and reports the best schedule found so far, flagged
// possibly-suboptimal. Lambda counts machine-relative work; the optional
// wall-clock deadline (SearchConfig::deadline_seconds, an extension)
// bounds real time the same way — incumbent kept, completed=false — with
// SearchStats::curtail_reason distinguishing which budget expired.
#pragma once

#include "sched/schedule.hpp"
#include "sched/scheduler.hpp"
#include "sched/timing.hpp"

namespace pipesched {

/// Run the branch-and-bound search on one block (the B&B backend of
/// SchedulerKind::Optimal; SearchConfig lives in sched/scheduler.hpp).
/// `initial` carries residual pipeline occupancy at block entry (paper
/// footnote 1: adjacent blocks are handled by modifying the initial
/// conditions of the analysis). When stats.feasible is false (a
/// pressure-constrained search with no feasible completion) the schedule
/// is the *infeasible* seed, returned for diagnostics only: stats.best_nops
/// is -1 then, and callers must not treat the schedule as a usable result.
ScheduleResult optimal_schedule(const Machine& machine, const DepGraph& dag,
                                const SearchConfig& config = {},
                                const PipelineState& initial = {});

}  // namespace pipesched
