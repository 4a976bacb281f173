// Incremental NOP-insertion engine — the paper's algorithm Omega
// (Section 4.2.2), reformulated over issue cycles.
//
// For the i-th placed instruction zeta the required issue cycle is
//
//   t(i) = max( t(i-1) + 1,                                  // one per slot
//               max_{delta in rho(zeta)} t(delta) + latency(sigma(delta)),
//               avail(u) )                                   // conflict
//
// where avail(u) = last issue on unit u + enqueue(u), minimized over the
// unit candidates for zeta (earliest-free-unit assignment: optimal for a
// fixed order when the candidates share one (latency, enqueue) signature;
// the optimal search passes one signature group at a time and branches
// over groups for heterogeneous alternatives). Then
// eta(i) = t(i) - t(i-1) - 1, and
// mu = t(n) - n: NOP counting and issue timing are the same computation.
//
// Operations with sigma = empty (Const, Store on the paper machine) have
// latency 0 and never conflict, exactly as steps [2] and [4] of the paper
// skip them.
//
// The engine is a stack: push() appends one instruction and returns its
// eta; pop() undoes the most recent push in O(1). The branch-and-bound
// search keeps one PipelineTimer and pushes/pops along its DFS walk, which
// is what makes each search node O(preds) instead of O(n).
#pragma once

#include <vector>

#include "ir/dag.hpp"
#include "machine/machine.hpp"
#include "sched/schedule.hpp"

namespace pipesched {

/// Residual pipeline occupancy at a block boundary (the paper's footnote 1:
/// "interactions between adjacent blocks can be managed ... by modifying
/// the initial conditions in the analysis for each block").
///
/// unit_last_issue[u] is the cycle, in the NEW block's timeline, at which
/// unit u last accepted an operation; block entry is cycle 0, so values
/// are <= 0 (e.g. -1 = the predecessor enqueued something on u two cycles
/// before our first slot). An empty vector means fully drained pipelines.
struct PipelineState {
  /// "Never issued" sentinel: far enough in the past that
  /// last + enqueue <= 1 for any enqueue time a machine description can
  /// validly carry (enqueue >= 1 and in practice a few cycles; anything
  /// approaching |kUnitIdle|/2 is unrepresentable residue, not a machine).
  static constexpr int kUnitIdle = -1'000'000;

  std::vector<int> unit_last_issue;

  /// Drained state (every unit idle) for `machine`.
  static PipelineState drained(const Machine& machine);

  /// True when no unit still constrains the entering block. The threshold
  /// derives from kUnitIdle (see is_drained's definition): a unit counts
  /// as drained only when its residue is in the sentinel's neighborhood,
  /// not merely "very negative" — a residual issue at, say, cycle -5000
  /// still constrains a unit whose enqueue time exceeds 5000 cycles.
  bool is_drained() const;
};

class PipelineTimer {
 public:
  PipelineTimer(const Machine& machine, const DepGraph& dag,
                const PipelineState& initial = {});

  /// Append tuple `t` as the next scheduled instruction, choosing the
  /// earliest-free unit among ALL of its opcode's alternatives (optimal
  /// for homogeneous alternatives; a heuristic for heterogeneous ones).
  /// Every DAG predecessor of `t` must already be placed (checked).
  /// Returns eta, the NOPs required immediately before it.
  int push(TupleIndex t);

  /// Append `t` restricted to the given unit candidates (one signature
  /// group; the optimal search branches over groups for heterogeneous
  /// alternatives). `units` must be a non-empty subset of the opcode's
  /// mapped pipelines.
  int push(TupleIndex t, const std::vector<PipelineId>& units);

  /// Undo the most recent push.
  void pop();

  /// Number of instructions currently placed.
  std::size_t depth() const { return placements_.size(); }

  /// mu(Phi): total NOPs of the current partial schedule.
  int total_nops() const { return total_nops_; }

  /// Issue cycle of the most recently placed instruction (0 when empty).
  int last_issue_cycle() const;

  /// Issue cycle of placed tuple `t` (must be placed).
  int issue_cycle_of(TupleIndex t) const;

  /// True when tuple `t` is currently placed.
  bool is_placed(TupleIndex t) const;

  /// Snapshot the current (complete or partial) schedule.
  Schedule snapshot() const;

  /// Reset to the empty schedule (initial conditions are kept).
  void clear();

  const Machine& machine() const { return *machine_; }
  const DepGraph& dag() const { return *dag_; }

  struct Placement {
    TupleIndex tuple;
    int issue_cycle;
    /// When its result is available: issue_cycle plus the chosen unit's
    /// latency, or issue_cycle when sigma = empty.
    int available;
    int eta;
    PipelineId unit;          // kNoPipeline when sigma = empty
    int prev_unit_last_issue; // saved for pop()
  };

  /// Placed instructions in issue order (read-only view for the search's
  /// state hashing: recent placements carry the pending-latency residue).
  const std::vector<Placement>& placements() const { return placements_; }

  /// Earliest cycle at which unit `u` accepts its next operation: the
  /// cycle it last accepted one (very negative when never used; see
  /// PipelineState) plus its enqueue time.
  int unit_ready(PipelineId u) const {
    const Unit& unit = units_[static_cast<std::size_t>(u)];
    return unit.last_issue + unit.enqueue;
  }

 private:
  const Machine* machine_;
  const DepGraph* dag_;
  std::vector<Placement> placements_;
  std::vector<int> position_of_;       // tuple -> stack index, -1 if absent
  /// Per pipeline unit: the cycle it last accepted an operation, and its
  /// PipelineDesc's times.
  struct Unit {
    int last_issue;
    int latency;
    int enqueue;
  };
  std::vector<Unit> units_;
  int total_nops_ = 0;
};

/// Residual occupancy seen by a block that starts right after the last
/// issue of `schedule`, which began in state `entry` (drained when empty):
/// each unit's last issue comes from the schedule's issue_cycle and unit
/// rows, or from `entry` when the schedule never used it. For chaining
/// across a fall-through edge.
PipelineState exit_state_after(const Machine& machine,
                               const Schedule& schedule,
                               const PipelineState& entry = {});

/// Evaluate a complete order from scratch: the O(n) procedure "Q" of
/// Section 2.3. Throws Error if `order` is not a legal topological order.
Schedule evaluate_order(const Machine& machine, const DepGraph& dag,
                        const std::vector<TupleIndex>& order,
                        const PipelineState& initial = {});

}  // namespace pipesched
