// Tests for the Section 5.3 block-splitting scheduler.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ir/dag.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/optimal_scheduler.hpp"
#include "sched/split_scheduler.hpp"
#include "sched/timing.hpp"
#include "synth/generator.hpp"

namespace pipesched {
namespace {

BasicBlock big_block(std::uint64_t seed, int statements = 40) {
  GeneratorParams params;
  params.statements = statements;
  params.variables = 8;
  params.constants = 3;
  params.seed = seed;
  return generate_block(params);
}

/// A block small enough for one window to search exhaustively, or an empty
/// block when the generator's draw is larger.
BasicBlock small_block(std::uint64_t seed) {
  GeneratorParams params;
  params.statements = 5;
  params.variables = 4;
  params.constants = 2;
  params.seed = seed * 13;
  BasicBlock block = generate_block(params);
  return block.size() > 14 ? BasicBlock() : block;
}

TEST(Split, ProducesLegalSchedules) {
  const Machine machine = Machine::paper_simulation();
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const BasicBlock block = big_block(seed);
    if (block.empty()) continue;
    const DepGraph dag(block);
    SearchConfig config;
    config.split_window = 10;
    const ScheduleResult result = split_schedule(machine, dag, config);
    EXPECT_TRUE(dag.is_legal_order(result.schedule.order)) << seed;
    EXPECT_EQ(result.schedule.total_nops(), result.stats.best_nops);
    // Several windows are each optimal only locally: no proof.
    if (block.size() > 10) {
      EXPECT_FALSE(result.stats.completed) << seed;
    }
  }
}

TEST(Split, NeverWorseThanTheListSchedule) {
  // Guaranteed: each window starts from the list order as incumbent.
  const Machine machine = Machine::paper_simulation();
  for (std::uint64_t seed = 20; seed <= 40; ++seed) {
    const BasicBlock block = big_block(seed, 30);
    if (block.empty()) continue;
    const DepGraph dag(block);
    const int list_nops = list_schedule(machine, dag).total_nops();
    for (int window : {5, 10, 20}) {
      SearchConfig config;
      config.split_window = window;
      const ScheduleResult result = split_schedule(machine, dag, config);
      EXPECT_LE(result.schedule.total_nops(), list_nops)
          << "seed " << seed << " window " << window;
    }
  }
}

TEST(Split, EqualsGlobalOptimumWhenWindowCoversBlock) {
  const Machine machine = Machine::paper_simulation();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const BasicBlock block = small_block(seed);
    if (block.empty()) continue;
    const DepGraph dag(block);

    SearchConfig full;
    full.curtail_lambda = 0;
    const int optimum =
        optimal_schedule(machine, dag, full).schedule.total_nops();

    SearchConfig config;
    config.split_window = static_cast<int>(block.size());
    config.curtail_lambda = 0;
    const ScheduleResult result = split_schedule(machine, dag, config);
    EXPECT_EQ(result.schedule.total_nops(), optimum) << seed;
    EXPECT_TRUE(result.stats.completed);
  }
}

TEST(Split, KindEqualsGlobalOptimumFromAResidualEntryState) {
  // One uncut window searches every order from the entry state, as the
  // global search does from the same state. Every unit of this machine
  // issued at the boundary, so each unit's first use waits.
  const Machine machine = Machine::unpipelined_units();
  PipelineState entry = PipelineState::drained(machine);
  for (int& last : entry.unit_last_issue) last = 0;
  int entry_costs_nops = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const BasicBlock block = small_block(seed);
    if (block.empty()) continue;
    const DepGraph dag(block);

    SearchConfig config;
    config.curtail_lambda = 0;
    config.split_window = static_cast<int>(block.size());
    const ScheduleResult split =
        run_scheduler(SchedulerKind::Split, machine, dag, config, entry);
    EXPECT_EQ(split.schedule.total_nops(),
              optimal_schedule(machine, dag, config, entry)
                  .schedule.total_nops())
        << seed;
    EXPECT_TRUE(split.stats.completed) << seed;
    EXPECT_TRUE(dag.is_legal_order(split.schedule.order)) << seed;
    entry_costs_nops +=
        split.stats.initial_nops >
        run_scheduler(SchedulerKind::Split, machine, dag, config)
            .stats.initial_nops;
  }
  EXPECT_GT(entry_costs_nops, 0);
}

TEST(Split, ClaimsOptimalOnlyWhenItIs) {
  // One window covering the block searches every order and unit group,
  // on machines with heterogeneous alternative units too.
  for (const std::string& name : Machine::preset_names()) {
    const Machine machine = Machine::preset(name);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const BasicBlock block = small_block(seed);
      if (block.empty()) continue;
      const DepGraph dag(block);
      SearchConfig config;
      config.curtail_lambda = 0;
      config.split_window = static_cast<int>(block.size());
      const ScheduleResult split = split_schedule(machine, dag, config);
      EXPECT_TRUE(split.stats.completed) << name << " seed " << seed;
      EXPECT_EQ(split.schedule.total_nops(),
                optimal_schedule(machine, dag, config).schedule.total_nops())
          << name << " seed " << seed;
    }
  }
}

TEST(Split, OneWindowMatchesTheOptimumOnEveryPreset) {
  // The window search tries each unit group of a candidate, as the global
  // search does; when it took the timer's earliest-free unit instead, a
  // one-window split on asymmetric-alus was worse than the optimum on
  // more than half of these blocks. The last machine lists its slow ALU
  // first, so trying the first group alone is not enough either.
  std::vector<Machine> machines;
  for (const std::string& name : Machine::preset_names()) {
    machines.push_back(Machine::preset(name));
  }
  Machine slow_first("slow-alu-first");
  slow_first.add_pipeline("loader", 3, 1);
  slow_first.add_pipeline("slow-alu", 4, 1);
  slow_first.add_pipeline("fast-alu", 1, 1);
  slow_first.add_pipeline("multiplier", 5, 2);
  slow_first.map_op(Opcode::Load, "loader");
  for (Opcode op : {Opcode::Add, Opcode::Sub, Opcode::Neg}) {
    slow_first.map_op(op, "slow-alu");
    slow_first.map_op(op, "fast-alu");
  }
  slow_first.map_op(Opcode::Mul, "multiplier");
  slow_first.map_op(Opcode::Div, "multiplier");
  machines.push_back(slow_first);

  for (const Machine& machine : machines) {
    const std::string& name = machine.name();
    int blocks = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
      GeneratorParams params;
      params.statements = 2 + static_cast<int>(seed % 5);
      params.variables = 2 + static_cast<int>(seed % 4);
      params.constants = 2;
      params.seed = seed * 7919;
      const BasicBlock block = generate_block(params);
      if (block.empty() || block.size() > 12) continue;
      ++blocks;
      const DepGraph dag(block);
      SearchConfig config;
      config.curtail_lambda = 0;
      config.split_window = static_cast<int>(block.size());
      const ScheduleResult split = split_schedule(machine, dag, config);
      ASSERT_TRUE(split.stats.completed) << name << " seed " << seed;
      ASSERT_TRUE(dag.is_legal_order(split.schedule.order));
      ASSERT_EQ(split.schedule.total_nops(),
                optimal_schedule(machine, dag, config).schedule.total_nops())
          << name << " seed " << seed;
    }
    EXPECT_GE(blocks, 250) << name;
  }
}

TEST(Split, WindowLambdaBoundsWork) {
  const Machine machine = Machine::paper_simulation();
  const BasicBlock block = big_block(99, 50);
  const DepGraph dag(block);
  SearchConfig config;
  config.split_window = 15;
  config.curtail_lambda = 5;
  const ScheduleResult result = split_schedule(machine, dag, config);
  EXPECT_TRUE(dag.is_legal_order(result.schedule.order));
  // Total placements bounded by windows * (lambda + slack for the final
  // placements of the attempt in flight).
  const std::uint64_t windows = (block.size() + 14) / 15;
  EXPECT_LE(result.stats.omega_calls, windows * (5 + block.size()));
}

TEST(Split, DeadlineCutsEveryWindowAndNamesTheBudget) {
  const Machine machine = Machine::paper_simulation();
  // 339 unoptimized tuples whose 17 windows take 16,024 placements.
  GeneratorParams params;
  params.statements = 150;
  params.variables = 12;
  params.seed = 2;
  params.optimize = false;
  const BasicBlock block = generate_block(params);
  const DepGraph dag(block);
  SearchConfig config;
  config.split_window = 20;
  config.curtail_lambda = 50000;
  // No window is cut, yet 17 windows prove nothing about the block.
  const ScheduleResult full = split_schedule(machine, dag, config);
  ASSERT_FALSE(full.stats.completed);
  ASSERT_GT(full.stats.omega_calls, 10000u);
  EXPECT_EQ(full.stats.curtail_reason, CurtailReason::None);

  // The deadline is armed once for the whole split and sampled every
  // 1,024 placements; once it has passed, every later window stops at its
  // first candidate and keeps its list order.
  config.deadline_seconds = 1e-9;
  const ScheduleResult timed = split_schedule(machine, dag, config);
  EXPECT_FALSE(timed.stats.completed);
  EXPECT_EQ(timed.stats.curtail_reason, CurtailReason::Deadline);
  EXPECT_EQ(timed.stats.omega_calls, 1024u);
  EXPECT_TRUE(dag.is_legal_order(timed.schedule.order));
  EXPECT_LE(timed.schedule.total_nops(),
            list_schedule(machine, dag).total_nops());

  config.deadline_seconds = 0;
  config.curtail_lambda = 5;
  const ScheduleResult cut = split_schedule(machine, dag, config);
  EXPECT_FALSE(cut.stats.completed);
  EXPECT_EQ(cut.stats.curtail_reason, CurtailReason::Lambda);
}

TEST(Split, HandlesWindowSizeOne) {
  // Degenerate split: every window has a single instruction, so the result
  // is exactly the list schedule.
  const Machine machine = Machine::paper_simulation();
  const BasicBlock block = big_block(7, 12);
  const DepGraph dag(block);
  SearchConfig config;
  config.split_window = 1;
  const ScheduleResult result = split_schedule(machine, dag, config);
  EXPECT_EQ(result.schedule.order, list_schedule_order(dag));
  EXPECT_EQ(result.schedule.total_nops(),
            list_schedule(machine, dag).total_nops());
}

TEST(Split, SmallerWindowsTradeQualityForTime) {
  // Not a theorem, but across a sample total NOPs must be monotone-ish:
  // window >= n is optimal, window 1 is the list schedule; intermediate
  // windows land in between on aggregate.
  const Machine machine = Machine::paper_simulation();
  long nops_w1 = 0;
  long nops_w10 = 0;
  long nops_full = 0;
  for (std::uint64_t seed = 50; seed <= 70; ++seed) {
    const BasicBlock block = big_block(seed, 25);
    if (block.empty()) continue;
    const DepGraph dag(block);
    SearchConfig w1;
    w1.split_window = 1;
    SearchConfig w10;
    w10.split_window = 10;
    SearchConfig wfull;
    wfull.split_window = static_cast<int>(block.size());
    wfull.curtail_lambda = 100000;
    nops_w1 += split_schedule(machine, dag, w1).schedule.total_nops();
    nops_w10 += split_schedule(machine, dag, w10).schedule.total_nops();
    nops_full += split_schedule(machine, dag, wfull).schedule.total_nops();
  }
  EXPECT_LE(nops_w10, nops_w1);
  EXPECT_LE(nops_full, nops_w10);
}

TEST(Split, WorksOnEveryMachinePreset) {
  for (const std::string& name : Machine::preset_names()) {
    const Machine machine = Machine::preset(name);
    const BasicBlock block = big_block(5, 25);
    if (block.empty()) continue;
    const DepGraph dag(block);
    const int list_nops = list_schedule(machine, dag).total_nops();
    SearchConfig config;
    config.split_window = 8;
    const ScheduleResult result = split_schedule(machine, dag, config);
    EXPECT_TRUE(dag.is_legal_order(result.schedule.order)) << name;
    EXPECT_LE(result.schedule.total_nops(), list_nops) << name;
  }
}

}  // namespace
}  // namespace pipesched
