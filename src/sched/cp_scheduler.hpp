// CP/DP optimal backend — chronological constraint search over
// (cycle, issue-slot) assignments. The second, independent implementation
// of the optimal-scheduling specification (minimum-NOP schedule under the
// Section 4.2.2 timing rules), built as a differential oracle against the
// branch-and-bound backend: both claim optimality whenever
// stats.completed is true, so any disagreement on best_nops between the
// two is a soundness bug in one of them.
//
// Model. Instead of enumerating permutations (B&B), the solver probes
// makespans: "does a schedule finishing by cycle T exist?". Feasibility
// is monotone in T (any schedule pads upward), so the loop DESCENDS from
// one below the seed's makespan: each successful probe is a
// first-completion dive whose cost k jumps the next horizon straight to
// n + k - 1 ("beat it by one NOP"), and the first infeasible probe —
// ONE exhaustive refutation, one cycle below the optimum — certifies
// optimality for every lower horizon at once. A completion meeting the
// critical-path/positional lower bound exits with no refutation at all.
//
// Each probe is a chronological DFS over cycles: at cycle c either one
// ready instruction issues on one of its unit-signature groups, or the
// probe idles FORWARD TO THE NEXT EVENT (NOPs drawn from the budget
// B = T - n). Constraint propagation per node:
//
//   windows    earliest/latest cycles. est0(t) folds Definition 6
//              (|ancestors|+1), latency-weighted chains from above, and
//              first unit availability under the entry PipelineState; at
//              each node the pass re-propagates earliest starts through
//              placed predecessors' actual (cycle, latency) in one
//              topological sweep. tail(t) = max(latency height below t,
//              |descendants|), so t must issue by lst(t) = T - tail(t).
//              Any unplaced t with est(t) > lst(t) kills the node;
//              lst(t) == c forces t into cycle c (two distinct forced
//              tuples kill the node).
//   resources  exact unit bookkeeping: a signature group is issuable at c
//              iff some unit u in it has last_issue(u) + enqueue(u) <= c.
//              Within a group the concrete unit is immaterial (leftover
//              availability <= c never constrains later cycles), so the
//              solver takes the first free unit — the same exchange
//              argument behind the timing engine's earliest-free rule.
//              Capacity propagation on top: the k unplaced ops bound to
//              a single unit issue there at enqueue-interval spacing, so
//              max(c, avail(u)) + (k-1)*enqueue(u) must not overshoot
//              the loosest of their windows.
//   NOP rule   an idle cycle is dominated — and the idle branch skipped —
//              when no forced tuple exists and every ready,
//              pressure-admissible candidate could issue *now* with ALL
//              of its units free: whichever instruction a completion
//              issues first after the idle gap can be moved onto cycle c
//              on its own unit without disturbing anything else. The
//              all-units-free condition is required: with only some
//              units free the completion may use a busy unit whose
//              enqueue residue reaches past c. When idling is not
//              dominated it is branched as ONE JUMP to the next event —
//              the earliest cycle at which a currently blocked
//              (candidate, group) placement becomes legal. Nothing new
//              becomes issuable strictly before the event, so a
//              completion first-issuing in between issues something
//              already issuable at c, which the exchange above moves
//              onto c: per-cycle idle branching would only re-derive
//              dominated states.
//   symmetry   strong automorphism classes only (identical pipeline set,
//              predecessor set, successor set): at most one candidate
//              per class is tried per node. The paper's sigma/rho-empty
//              class-0 rule is NOT applied — it is sound for B&B's
//              position-indexed nodes but not obviously so for
//              fixed-cycle nodes. The classes come pressure-refined
//              (operand-ref multiset + result-ness), so the skip stays
//              sound — and enabled — under a register-pressure ceiling.
//
// Each probe also memoizes exhaustively-failed DP states — per-tuple
// latency residues plus per-unit enqueue residues, all relative to the
// current cycle — so permuted prefixes that issue the same tuple set
// into the same residue picture share one subtree. The cycle itself is
// NOT part of the key: constraints below a node are translation-
// invariant given the residues, so a completion from a later cycle
// shifts left onto an earlier one, and a state that failed at cycle c
// fails at every cycle >= c — the memo stores the minimum failed cycle
// per state. The memo is probe-local (feasibility is horizon-dependent)
// and budgeted by kSearchMemoBytes.
//
// Under a register ceiling whose list seed overshoots, feasibility —
// a property of the instruction order alone, independent of timing —
// is decided once up front by a pure order search with a failed
// placed-set memo; an admissible order replaces the seed, and a proven
// failure reports infeasible without probing any horizon.
//
// Config. CurtailReason budgets (curtail_lambda over cumulative
// placement attempts + NOP advances across probes, deadline_seconds)
// and max_live_registers are honored; seed_with_list_schedule picks the
// incumbent returned on curtailment; dominance_cache gates the DP
// failed-state memo (kSearchMemoBytes sizes it). The
// remaining B&B prune toggles (alpha_beta, equivalence_prune,
// strong_equivalence, lower_bound_prune) are ignored —
// the CP propagation rules are always on.
//
// Stats mapping (satellite of the backend-shape audit: every SearchStats
// field is explicitly defined for this backend):
//   omega_calls            placement attempts + idle jumps (all probes)
//   nodes_expanded         DFS nodes across all probes
//   schedules_examined     completions found (one per successful probe)
//   pruned_window          window kills (est > lst), capacity-propagation
//                          kills, forced-slot displacements, forced-slot
//                          and past-horizon idle suppressions
//   pruned_alpha_beta      idle jumps denied by the budget B = T - n
//   pruned_readiness       unready / too-early / unit-busy candidate skips
//   pruned_equivalence     strong-class skips
//   pruned_pressure        register-ceiling skips
//   pruned_dominance       DP failed-state memo hits
//   cache_probes/hits      DP memo lookups / hits (== pruned_dominance)
//   pruned_lower_bound                                                 0
//   initial_nops           seed (list or pressure-repaired) schedule cost
//   incumbent_improvements successful probes (each beats the last by >= 1)
//   completed/curtail_reason/feasible/best_nops    as for the B&B backend
#pragma once

#include "sched/scheduler.hpp"

namespace pipesched {

/// Run the CP/DP search on one block (the CP backend of
/// SchedulerKind::Optimal, called like optimal_schedule()).
ScheduleResult cp_schedule(const Machine& machine, const DepGraph& dag,
                           const SearchConfig& config = {},
                           const PipelineState& initial = {});

}  // namespace pipesched
