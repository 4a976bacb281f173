#include "sched/schedule.hpp"

#include <numeric>
#include <sstream>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace pipesched {

const char* curtail_reason_name(CurtailReason reason) {
  switch (reason) {
    case CurtailReason::None:
      return "none";
    case CurtailReason::Lambda:
      return "lambda";
    case CurtailReason::Deadline:
      return "deadline";
  }
  return "?";
}

const char* search_outcome_name(SearchOutcome outcome) {
  switch (outcome) {
    case SearchOutcome::Optimal: return "optimal";
    case SearchOutcome::Infeasible: return "infeasible";
    case SearchOutcome::Curtailed: return "curtailed";
    case SearchOutcome::NoSchedule: return "no_schedule";
  }
  return "?";
}

int Schedule::total_nops() const {
  return std::accumulate(nops.begin(), nops.end(), 0);
}

int Schedule::completion_cycle() const {
  return issue_cycle.empty() ? 0 : issue_cycle.back();
}

int Schedule::position_of(TupleIndex t) const {
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == t) return static_cast<int>(i) + 1;
  }
  return -1;
}

std::string Schedule::to_string(const BasicBlock& block,
                                const Machine& machine) const {
  PS_ASSERT(order.size() == nops.size() &&
            order.size() == issue_cycle.size() && order.size() == unit.size());
  std::ostringstream oss;
  int cycle = 1;
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (int k = 0; k < nops[i]; ++k) {
      oss << "cycle " << pad_left(std::to_string(cycle++), 3) << ": NOP\n";
    }
    const Tuple& t = block.tuple(order[i]);
    std::ostringstream line;
    line << (order[i] + 1) << ": " << opcode_name(t.op);
    oss << "cycle " << pad_left(std::to_string(cycle++), 3) << ": "
        << pad_right(line.str(), 16);
    if (unit[i] != kNoPipeline) {
      oss << " [" << machine.pipeline(unit[i]).function << " #"
          << unit[i] + 1 << "]";
    }
    oss << "\n";
  }
  oss << "total NOPs: " << total_nops() << "\n";
  return oss.str();
}

}  // namespace pipesched
