// Cross-checks between the cycle-stepped simulator (architecture's view,
// Section 2.2) and the scheduler's timing engine (compiler's view) — the
// paper's point that the delay mechanism is orthogonal to scheduling.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "ir/block_parser.hpp"
#include "ir/dag.hpp"
#include "sched/greedy_scheduler.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/optimal_scheduler.hpp"
#include "sched/timing.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"

namespace pipesched {
namespace {

struct SimCase {
  std::string machine;
  std::uint64_t seed;
};

class SimulatorCrossCheck : public testing::TestWithParam<SimCase> {};

TEST_P(SimulatorCrossCheck, InterlockStallsEqualPaddedNops) {
  // For every scheduler's output: hardware-interlock stalls on the bare
  // order must equal the NOPs the timing engine inserted, and the padded
  // stream must validate hazard-free.
  const Machine machine = Machine::preset(GetParam().machine);
  GeneratorParams params;
  params.statements = 9;
  params.variables = 5;
  params.constants = 2;
  params.seed = GetParam().seed;
  const BasicBlock block = generate_block(params);
  if (block.empty()) GTEST_SKIP();
  const DepGraph dag(block);

  std::vector<Schedule> schedules;
  schedules.push_back(list_schedule(machine, dag));
  schedules.push_back(greedy_schedule(machine, dag));
  SearchConfig config;
  config.curtail_lambda = 20000;
  schedules.push_back(optimal_schedule(machine, dag, config).schedule);

  for (const Schedule& s : schedules) {
    const SimResult padded = validate_padded(machine, dag, s);
    EXPECT_TRUE(padded.ok) << padded.error;
    EXPECT_EQ(padded.total_delay, s.total_nops());
    EXPECT_EQ(padded.completion_cycle, s.completion_cycle());

    // On heterogeneous machines the hardware's first-free dispatch may
    // pick different units than the scheduler intended; replay the
    // scheduler's own assignment for an exact cross-check.
    const SimResult interlocked =
        machine.has_heterogeneous_alternatives()
            ? simulate_interlocked(machine, dag, s.order, s.unit)
            : simulate_interlocked(machine, dag, s.order);
    EXPECT_EQ(interlocked.total_delay, s.total_nops());
    EXPECT_EQ(interlocked.completion_cycle, s.completion_cycle());
    EXPECT_EQ(interlocked.issue_cycle, s.issue_cycle);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimulatorCrossCheck,
    testing::ValuesIn([] {
      std::vector<SimCase> cases;
      for (const std::string& machine : Machine::preset_names()) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
          cases.push_back({machine, seed * 31});
        }
      }
      return cases;
    }()),
    [](const testing::TestParamInfo<SimCase>& param_info) {
      std::string name =
          param_info.param.machine + "_seed" + std::to_string(param_info.param.seed);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Simulator, DetectsDependenceHazard) {
  // Hand-build a padded schedule with too few NOPs; validation must fail.
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Neg 1\n");
  const Machine machine = Machine::paper_simulation();
  const DepGraph dag(block);
  Schedule bogus = evaluate_order(machine, dag, {0, 1});
  ASSERT_GT(bogus.nops[1], 0);
  bogus.nops[1] = 0;  // strip the required delay
  const SimResult result = validate_padded(machine, dag, bogus);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("not ready"), std::string::npos);
}

TEST(Simulator, DetectsConflictHazard) {
  const BasicBlock muls = parse_block(
      "1: Load #a\n"
      "2: Load #b\n"
      "3: Mul 1, 2\n"
      "4: Mul 2, 1\n");
  const Machine machine = Machine::paper_simulation();  // mul enqueue 2
  const DepGraph dag(muls);
  Schedule bogus = evaluate_order(machine, dag, {0, 1, 2, 3});
  ASSERT_GT(bogus.nops[3], 0);  // multiplier enqueue forces a gap
  bogus.nops[3] = 0;
  const SimResult result = validate_padded(machine, dag, bogus);
  EXPECT_FALSE(result.ok);
}

TEST(Simulator, ExplicitTagsMatchEta) {
  const Machine machine = Machine::risc_classic();
  GeneratorParams params;
  params.statements = 7;
  params.variables = 4;
  params.constants = 2;
  params.seed = 17;
  const BasicBlock block = generate_block(params);
  const DepGraph dag(block);
  const Schedule s = list_schedule(machine, dag);
  const std::vector<int> tags = explicit_wait_tags(machine, dag, s.order);
  ASSERT_EQ(tags.size(), s.nops.size());
  for (std::size_t i = 0; i < tags.size(); ++i) {
    EXPECT_EQ(tags[i], s.nops[i]) << "position " << i;
  }
}

TEST(Simulator, TraceRendersOccupancy) {
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Mul 1, 1\n"
      "3: Store #a, 2\n");
  const Machine machine = Machine::paper_simulation();
  const DepGraph dag(block);
  const SimResult result =
      simulate_interlocked(machine, dag, {0, 1, 2});
  const std::string trace = render_pipeline_trace(machine, block, result);
  EXPECT_NE(trace.find("cycle"), std::string::npos);
  EXPECT_NE(trace.find("loader"), std::string::npos);
  EXPECT_NE(trace.find("multiplier"), std::string::npos);
}

TEST(Simulator, ListingAndTraceKeepFourDigitCycles) {
  // A chain of 401 dependent multiplies runs past cycle 1,000; every
  // "cycle N" line of the schedule listing must name its own cycle, and
  // the occupancy trace's header must hold 1000 whole.
  std::string text = "1: Load #a\n";
  for (int i = 2; i <= 402; ++i) {
    text += std::to_string(i) + ": Mul " + std::to_string(i - 1) + ", " +
            std::to_string(i - 1) + "\n";
  }
  const BasicBlock block = parse_block(text);
  const Machine machine = Machine::paper_simulation();
  const DepGraph dag(block);
  std::vector<TupleIndex> order(block.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<TupleIndex>(i);
  }
  const Schedule schedule = evaluate_order(machine, dag, order);
  ASSERT_GT(schedule.completion_cycle(), 1000);

  std::istringstream listing(schedule.to_string(block, machine));
  std::string line;
  int cycle = 0;
  while (std::getline(listing, line) && line.rfind("cycle ", 0) == 0) {
    ++cycle;
    EXPECT_EQ(std::stoi(line.substr(6, line.find(':') - 6)), cycle) << line;
  }
  EXPECT_EQ(cycle, schedule.completion_cycle());

  // The occupancy trace: past cycle 999 its cells widen to 5 characters,
  // so the header and the issue row split into equal cells, header cell k
  // reads k, and the issue row names the chain's tuples in order.
  const std::string trace = render_pipeline_trace(
      machine, block, simulate_interlocked(machine, dag, order));
  std::istringstream rows(trace);
  std::string header;
  std::string issue;
  ASSERT_TRUE(std::getline(rows, header) && std::getline(rows, issue));
  const std::size_t prefix = header.find('|') + 1;
  ASSERT_EQ(issue.find('|') + 1, prefix);
  const auto cycles = static_cast<std::size_t>(schedule.completion_cycle());
  ASSERT_EQ((header.size() - prefix) % cycles, 0u);
  const std::size_t width = (header.size() - prefix) / cycles;
  EXPECT_EQ(width, 5u);
  ASSERT_EQ(issue.size(), header.size());
  const auto cell = [&](const std::string& row, std::size_t k) {
    const std::string padded = row.substr(prefix + (k - 1) * width, width);
    EXPECT_EQ(padded[0], ' ') << "cell " << k << " touches its neighbour";
    return padded.substr(padded.find_first_not_of(' '));
  };
  int tuple = 0;
  for (std::size_t k = 1; k <= cycles; ++k) {
    EXPECT_EQ(cell(header, k), std::to_string(k));
    const std::string issued = cell(issue, k);
    if (issued != "." && issued != "-") {
      EXPECT_EQ(issued, std::to_string(++tuple)) << "cycle " << k;
    }
  }
  EXPECT_EQ(tuple, 402);
}

TEST(Simulator, ParallelUnitsAbsorbConflicts) {
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Load #b\n"
      "3: Load #c\n");
  const DepGraph dag(block);
  // One loader: enqueue 1 -> no stalls anyway; use unpipelined units where
  // loader enqueue==latency==3 to see real serialization.
  const SimResult serial = simulate_interlocked(
      Machine::unpipelined_units(), dag, {0, 1, 2});
  EXPECT_GT(serial.total_delay, 0);
  const SimResult dual =
      simulate_interlocked(Machine::paper_example(), dag, {0, 1, 2});
  EXPECT_EQ(dual.total_delay, 0);
}

}  // namespace
}  // namespace pipesched
