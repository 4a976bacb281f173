#include "sim/simulator.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace pipesched {

namespace {

/// Hardware scoreboard state: when each tuple's result becomes usable and
/// when each unit can accept its next operation.
struct Scoreboard {
  explicit Scoreboard(const Machine& machine, std::size_t tuples)
      : result_ready(tuples, 0),
        unit_free(machine.pipeline_count(), 1) {}

  std::vector<int> result_ready;  ///< first cycle the value may be consumed
  std::vector<int> unit_free;     ///< first cycle the unit accepts an op
};

/// True when `t` may issue at `cycle`; on success selects a unit.
bool can_issue(const Machine& machine, const DepGraph& dag,
               const Scoreboard& board, TupleIndex t, int cycle,
               PipelineId* unit_out, std::string* reason) {
  for (TupleIndex p : dag.preds(t)) {
    if (board.result_ready[static_cast<std::size_t>(p)] > cycle) {
      if (reason) {
        *reason = "operand of tuple " + std::to_string(t + 1) +
                  " (produced by tuple " + std::to_string(p + 1) +
                  ") not ready until cycle " +
                  std::to_string(
                      board.result_ready[static_cast<std::size_t>(p)]);
      }
      return false;
    }
  }
  const Opcode op = dag.block().tuple(t).op;
  const auto& units = machine.pipelines_for(op);
  if (units.empty()) {
    *unit_out = kNoPipeline;
    return true;
  }
  for (PipelineId u : units) {
    if (board.unit_free[static_cast<std::size_t>(u)] <= cycle) {
      *unit_out = u;
      return true;
    }
  }
  if (reason) {
    *reason = "no " + machine.pipeline(units.front()).function +
              " unit free for tuple " + std::to_string(t + 1) + " at cycle " +
              std::to_string(cycle);
  }
  return false;
}

void commit_issue(const Machine& machine, Scoreboard& board, TupleIndex t,
                  int cycle, PipelineId unit) {
  if (unit == kNoPipeline) {
    // Timing-transparent op: result usable from the next cycle.
    board.result_ready[static_cast<std::size_t>(t)] = cycle;
    return;
  }
  const PipelineDesc& desc = machine.pipeline(unit);
  board.result_ready[static_cast<std::size_t>(t)] = cycle + desc.latency;
  board.unit_free[static_cast<std::size_t>(unit)] = cycle + desc.enqueue;
}

}  // namespace

SimResult validate_padded(const Machine& machine, const DepGraph& dag,
                          const Schedule& schedule) {
  SimResult result;
  PS_CHECK(dag.is_legal_order(schedule.order),
           "padded schedule is not a legal order");
  Scoreboard board(machine, dag.size());
  int cycle = 0;
  for (std::size_t i = 0; i < schedule.order.size(); ++i) {
    for (int k = 0; k < schedule.nops[i]; ++k) {
      ++cycle;
      ++result.total_delay;
      result.trace.push_back({cycle, -1, kNoPipeline});
    }
    ++cycle;
    const TupleIndex t = schedule.order[i];
    PipelineId unit = kNoPipeline;
    std::string reason;
    if (!can_issue(machine, dag, board, t, cycle, &unit, &reason)) {
      result.ok = false;
      result.error = "hazard at cycle " + std::to_string(cycle) + ": " + reason;
      return result;
    }
    // Honour the unit the scheduler recorded when it is explicit; fall back
    // to the simulator's free unit otherwise.
    if (schedule.unit[i] != kNoPipeline) {
      const PipelineId claimed = schedule.unit[i];
      if (board.unit_free[static_cast<std::size_t>(claimed)] > cycle) {
        result.ok = false;
        result.error = "hazard at cycle " + std::to_string(cycle) +
                       ": claimed unit " + std::to_string(claimed + 1) +
                       " still busy";
        return result;
      }
      unit = claimed;
    }
    commit_issue(machine, board, t, cycle, unit);
    result.issue_cycle.push_back(cycle);
    result.trace.push_back({cycle, t, unit});
  }
  result.completion_cycle = cycle;
  return result;
}

namespace {

SimResult interlocked_impl(const Machine& machine, const DepGraph& dag,
                           const std::vector<TupleIndex>& order,
                           const std::vector<PipelineId>* assignment) {
  PS_CHECK(dag.is_legal_order(order),
           "interlocked execution requires a legal order");
  PS_CHECK(!assignment || assignment->size() == order.size(),
           "unit assignment must cover the order");
  SimResult result;
  Scoreboard board(machine, dag.size());
  int cycle = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const TupleIndex t = order[i];
    ++cycle;
    PipelineId unit = kNoPipeline;
    auto ready = [&]() {
      if (!assignment) {
        return can_issue(machine, dag, board, t, cycle, &unit, nullptr);
      }
      // Replay a specific assignment: operands ready AND that unit free.
      unit = (*assignment)[i];
      if (!can_issue(machine, dag, board, t, cycle, &unit, nullptr)) {
        return false;
      }
      unit = (*assignment)[i];
      return unit == kNoPipeline ||
             board.unit_free[static_cast<std::size_t>(unit)] <= cycle;
    };
    while (!ready()) {
      result.trace.push_back({cycle, -1, kNoPipeline});
      ++result.total_delay;
      ++cycle;
    }
    commit_issue(machine, board, t, cycle, unit);
    result.issue_cycle.push_back(cycle);
    result.trace.push_back({cycle, t, unit});
  }
  result.completion_cycle = cycle;
  return result;
}

}  // namespace

SimResult simulate_interlocked(const Machine& machine, const DepGraph& dag,
                               const std::vector<TupleIndex>& order) {
  return interlocked_impl(machine, dag, order, nullptr);
}

SimResult simulate_interlocked(
    const Machine& machine, const DepGraph& dag,
    const std::vector<TupleIndex>& order,
    const std::vector<PipelineId>& unit_assignment) {
  return interlocked_impl(machine, dag, order, &unit_assignment);
}

std::vector<int> explicit_wait_tags(const Machine& machine,
                                    const DepGraph& dag,
                                    const std::vector<TupleIndex>& order) {
  const SimResult interlocked = simulate_interlocked(machine, dag, order);
  std::vector<int> tags(order.size(), 0);
  int prev_cycle = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    tags[i] = interlocked.issue_cycle[i] - prev_cycle - 1;
    PS_ASSERT(tags[i] >= 0);
    prev_cycle = interlocked.issue_cycle[i];
  }
  return tags;
}

std::string render_pipeline_trace(const Machine& machine,
                                  const BasicBlock& block,
                                  const SimResult& result) {
  std::ostringstream oss;
  const int last = result.completion_cycle;
  // Issue row: which instruction enters the machine each cycle.
  std::vector<std::string> issue_row(static_cast<std::size_t>(last) + 1, ".");
  // Per-unit occupancy (enqueue window) rows.
  std::vector<std::vector<std::string>> unit_rows(
      machine.pipeline_count(),
      std::vector<std::string>(static_cast<std::size_t>(last) + 1, "."));

  for (const SimEvent& e : result.trace) {
    if (e.cycle < 1 || e.cycle > last) continue;
    if (e.tuple < 0) {
      issue_row[static_cast<std::size_t>(e.cycle)] = '-';
      continue;
    }
    const std::string label = std::to_string(e.tuple + 1);
    issue_row[static_cast<std::size_t>(e.cycle)] = label;
    if (e.unit != kNoPipeline) {
      const int busy = machine.pipeline(e.unit).enqueue;
      for (int c = e.cycle; c < e.cycle + busy && c <= last; ++c) {
        unit_rows[static_cast<std::size_t>(e.unit)]
                 [static_cast<std::size_t>(c)] = label;
      }
    }
  }

  // Every cell is one wider than the widest cycle number or tuple label,
  // and at least 3, so neighbouring numbers never touch.
  const std::size_t widest = std::max(std::to_string(last).size(),
                                      std::to_string(block.size()).size());
  const std::size_t width = std::max<std::size_t>(3, widest + 1);
  auto emit_row = [&](const std::string& name,
                      const std::vector<std::string>& cells) {
    oss << pad_right(name, 14) << "|";
    for (int c = 1; c <= last; ++c) {
      oss << pad_left(cells[static_cast<std::size_t>(c)], width);
    }
    oss << "\n";
  };

  std::vector<std::string> cycles(static_cast<std::size_t>(last) + 1);
  for (int c = 1; c <= last; ++c) {
    cycles[static_cast<std::size_t>(c)] = std::to_string(c);
  }
  emit_row("cycle", cycles);
  emit_row("issue", issue_row);
  for (std::size_t u = 0; u < machine.pipeline_count(); ++u) {
    emit_row(machine.pipeline(static_cast<PipelineId>(u)).function + " #" +
                 std::to_string(u + 1),
             unit_rows[u]);
  }
  return oss.str();
}

}  // namespace pipesched
