#include "sched/timing.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace pipesched {

namespace {

/// File-local alias for the sentinel declared on PipelineState.
constexpr int kUnitIdle = PipelineState::kUnitIdle;

}  // namespace

PipelineState PipelineState::drained(const Machine& machine) {
  PipelineState state;
  state.unit_last_issue.assign(machine.pipeline_count(), kUnitIdle);
  return state;
}

bool PipelineState::is_drained() const {
  // A unit still constrains the entering block when last + enqueue > 1.
  // Without a Machine at hand the enqueue time is unknown, so split the
  // range at kUnitIdle / 2: genuine residues are small negative cycle
  // numbers (a predecessor block's recent issues, clamped at kUnitIdle
  // by exit_state_after()), while only the idle sentinel's neighborhood
  // lies at or below half the sentinel — no valid enqueue time can bridge
  // 500,000 cycles. The previous fixed -1000 cutoff misclassified residues in
  // (kUnitIdle, -1000] as drained for enqueue times above 1000 cycles.
  for (int last : unit_last_issue) {
    if (last > kUnitIdle / 2) return false;
  }
  return true;
}

PipelineTimer::PipelineTimer(const Machine& machine, const DepGraph& dag,
                             const PipelineState& initial)
    : machine_(&machine), dag_(&dag) {
  machine.validate();
  placements_.reserve(dag.size());
  position_of_.assign(dag.size(), -1);
  PS_CHECK(initial.unit_last_issue.empty() ||
               initial.unit_last_issue.size() == machine.pipeline_count(),
           "pipeline state does not match the machine's unit count");
  units_.reserve(machine.pipeline_count());
  for (std::size_t u = 0; u < machine.pipeline_count(); ++u) {
    const PipelineDesc& desc = machine.pipeline(static_cast<PipelineId>(u));
    const int last = initial.unit_last_issue.empty()
                         ? kUnitIdle
                         : initial.unit_last_issue[u];
    PS_CHECK(last <= 0,
             "initial unit occupancy must be at or before block entry "
             "(cycle 0), got "
                 << last);
    units_.push_back({last, desc.latency, desc.enqueue});
  }
}

int PipelineTimer::push(TupleIndex t) {
  return push(t,
              machine_->pipelines_for(dag_->block().tuple(t).op));
}

int PipelineTimer::push(TupleIndex t,
                        const std::vector<PipelineId>& units) {
  PS_ASSERT(t >= 0 && static_cast<std::size_t>(t) < dag_->size());
  PS_ASSERT(position_of_[static_cast<std::size_t>(t)] < 0);

  const int prev_cycle = last_issue_cycle();
  int required = prev_cycle + 1;

  // Dependence constraints (steps [5]-[6] of the paper's algorithm).
  for (TupleIndex p : dag_->preds(t)) {
    const int pos = position_of_[static_cast<std::size_t>(p)];
    PS_ASSERT(pos >= 0 && "predecessor not yet placed");
    required = std::max(
        required, placements_[static_cast<std::size_t>(pos)].available);
  }

  // Conflict constraint (step [3]): pick the earliest-free unit among the
  // given alternatives.
  PS_ASSERT(units.empty() ==
            machine_->pipelines_for(dag_->block().tuple(t).op).empty());
  PipelineId chosen = kNoPipeline;
  int issue = required;
  if (!units.empty()) {
    int best_avail = 0;
    for (PipelineId u : units) {
      // An idle unit (kUnitIdle, or residual state long past) clamps to
      // cycle 1.
      const int ready = std::max(1, unit_ready(u));
      if (chosen == kNoPipeline || ready < best_avail) {
        chosen = u;
        best_avail = ready;
      }
    }
    issue = std::max(required, best_avail);
  }

  const int eta = issue - prev_cycle - 1;
  PS_ASSERT(eta >= 0);

  Placement placement;
  placement.tuple = t;
  placement.issue_cycle = issue;
  placement.available =
      chosen == kNoPipeline
          ? issue
          : issue + units_[static_cast<std::size_t>(chosen)].latency;
  placement.eta = eta;
  placement.unit = chosen;
  placement.prev_unit_last_issue =
      chosen == kNoPipeline
          ? 0
          : units_[static_cast<std::size_t>(chosen)].last_issue;
  if (chosen != kNoPipeline) {
    units_[static_cast<std::size_t>(chosen)].last_issue = issue;
  }
  position_of_[static_cast<std::size_t>(t)] =
      static_cast<int>(placements_.size());
  placements_.push_back(placement);
  total_nops_ += eta;
  return eta;
}

void PipelineTimer::pop() {
  PS_ASSERT(!placements_.empty());
  const Placement& placement = placements_.back();
  if (placement.unit != kNoPipeline) {
    units_[static_cast<std::size_t>(placement.unit)].last_issue =
        placement.prev_unit_last_issue;
  }
  position_of_[static_cast<std::size_t>(placement.tuple)] = -1;
  total_nops_ -= placement.eta;
  placements_.pop_back();
}

int PipelineTimer::last_issue_cycle() const {
  return placements_.empty() ? 0 : placements_.back().issue_cycle;
}

int PipelineTimer::issue_cycle_of(TupleIndex t) const {
  const int pos = position_of_[static_cast<std::size_t>(t)];
  PS_ASSERT(pos >= 0);
  return placements_[static_cast<std::size_t>(pos)].issue_cycle;
}

bool PipelineTimer::is_placed(TupleIndex t) const {
  PS_ASSERT(t >= 0 && static_cast<std::size_t>(t) < dag_->size());
  return position_of_[static_cast<std::size_t>(t)] >= 0;
}

Schedule PipelineTimer::snapshot() const {
  Schedule s;
  s.order.reserve(placements_.size());
  s.nops.reserve(placements_.size());
  s.issue_cycle.reserve(placements_.size());
  s.unit.reserve(placements_.size());
  for (const Placement& p : placements_) {
    s.order.push_back(p.tuple);
    s.nops.push_back(p.eta);
    s.issue_cycle.push_back(p.issue_cycle);
    s.unit.push_back(p.unit);
  }
  return s;
}

void PipelineTimer::clear() {
  while (!placements_.empty()) pop();
}

PipelineState exit_state_after(const Machine& machine,
                               const Schedule& schedule,
                               const PipelineState& entry) {
  PipelineState state =
      entry.unit_last_issue.empty() ? PipelineState::drained(machine) : entry;
  PS_CHECK(state.unit_last_issue.size() == machine.pipeline_count(),
           "pipeline state does not match the machine's unit count");
  // Issue cycles rise along the schedule, so each unit keeps its last.
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (schedule.unit[i] != kNoPipeline) {
      state.unit_last_issue[static_cast<std::size_t>(schedule.unit[i])] =
          schedule.issue_cycle[i];
    }
  }
  const int exit_cycle = schedule.completion_cycle();
  for (int& last : state.unit_last_issue) {
    last = std::max(kUnitIdle, last - exit_cycle);
  }
  return state;
}

Schedule evaluate_order(const Machine& machine, const DepGraph& dag,
                        const std::vector<TupleIndex>& order,
                        const PipelineState& initial) {
  PS_CHECK(dag.is_legal_order(order),
           "evaluate_order: not a legal topological order of the block");
  PipelineTimer timer(machine, dag, initial);
  for (TupleIndex t : order) timer.push(t);
  return timer.snapshot();
}

}  // namespace pipesched
