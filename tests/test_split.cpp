// Tests for the Section 5.3 block-splitting scheduler.
#include <gtest/gtest.h>

#include "ir/dag.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/optimal_scheduler.hpp"
#include "sched/split_scheduler.hpp"
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

TEST(Split, ProducesLegalSchedules) {
  const Machine machine = Machine::paper_simulation();
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const BasicBlock block = big_block(seed);
    if (block.empty()) continue;
    const DepGraph dag(block);
    SplitConfig config;
    config.window_size = 10;
    const SplitResult result = split_schedule(machine, dag, config);
    EXPECT_TRUE(dag.is_legal_order(result.schedule.order)) << seed;
    EXPECT_EQ(result.schedule.total_nops(), result.stats.best_nops);
    EXPECT_EQ(result.windows,
              (static_cast<int>(block.size()) + 9) / 10);
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
      SplitConfig config;
      config.window_size = window;
      const SplitResult result = split_schedule(machine, dag, config);
      EXPECT_LE(result.schedule.total_nops(), list_nops)
          << "seed " << seed << " window " << window;
    }
  }
}

TEST(Split, EqualsGlobalOptimumWhenWindowCoversBlock) {
  const Machine machine = Machine::paper_simulation();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GeneratorParams params;
    params.statements = 5;
    params.variables = 4;
    params.constants = 2;
    params.seed = seed * 13;
    const BasicBlock block = generate_block(params);
    if (block.empty() || block.size() > 14) continue;
    const DepGraph dag(block);

    SearchConfig full;
    full.curtail_lambda = 0;
    const int optimum =
        optimal_schedule(machine, dag, full).schedule.total_nops();

    SplitConfig config;
    config.window_size = static_cast<int>(block.size());
    config.search.curtail_lambda = 0;
    const SplitResult result = split_schedule(machine, dag, config);
    EXPECT_EQ(result.schedule.total_nops(), optimum) << seed;
    EXPECT_TRUE(result.stats.completed);
  }
}

TEST(Split, WindowLambdaBoundsWork) {
  const Machine machine = Machine::paper_simulation();
  const BasicBlock block = big_block(99, 50);
  const DepGraph dag(block);
  SplitConfig config;
  config.window_size = 15;
  config.search.curtail_lambda = 5;
  const SplitResult result = split_schedule(machine, dag, config);
  EXPECT_TRUE(dag.is_legal_order(result.schedule.order));
  // Total placements bounded by windows * (lambda + slack for the final
  // placements of the attempt in flight).
  EXPECT_LE(result.stats.omega_calls,
            static_cast<std::uint64_t>(result.windows) *
                (5 + block.size()));
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
  SplitConfig config;
  config.window_size = 20;
  config.search.curtail_lambda = 50000;
  const SplitResult full = split_schedule(machine, dag, config);
  ASSERT_TRUE(full.stats.completed);
  ASSERT_GT(full.stats.omega_calls, 10000u);
  EXPECT_EQ(full.stats.curtail_reason, CurtailReason::None);

  // The deadline is armed once for the whole split and sampled every
  // 1,024 placements; once it has passed, every later window stops at its
  // first candidate and keeps its list order.
  config.search.deadline_seconds = 1e-9;
  const SplitResult timed = split_schedule(machine, dag, config);
  EXPECT_FALSE(timed.stats.completed);
  EXPECT_EQ(timed.stats.curtail_reason, CurtailReason::Deadline);
  EXPECT_EQ(timed.stats.omega_calls, 1024u);
  EXPECT_TRUE(dag.is_legal_order(timed.schedule.order));
  EXPECT_LE(timed.schedule.total_nops(),
            list_schedule(machine, dag).total_nops());

  config.search.deadline_seconds = 0;
  config.search.curtail_lambda = 5;
  const SplitResult cut = split_schedule(machine, dag, config);
  EXPECT_FALSE(cut.stats.completed);
  EXPECT_EQ(cut.stats.curtail_reason, CurtailReason::Lambda);
}

TEST(Split, HandlesWindowSizeOne) {
  // Degenerate split: every window has a single instruction, so the result
  // is exactly the list schedule.
  const Machine machine = Machine::paper_simulation();
  const BasicBlock block = big_block(7, 12);
  const DepGraph dag(block);
  SplitConfig config;
  config.window_size = 1;
  const SplitResult result = split_schedule(machine, dag, config);
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
    SplitConfig w1;
    w1.window_size = 1;
    SplitConfig w10;
    w10.window_size = 10;
    SplitConfig wfull;
    wfull.window_size = static_cast<int>(block.size());
    wfull.search.curtail_lambda = 100000;
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
    SplitConfig config;
    config.window_size = 8;
    const SplitResult result = split_schedule(machine, dag, config);
    EXPECT_TRUE(dag.is_legal_order(result.schedule.order)) << name;
    EXPECT_LE(result.schedule.total_nops(), list_nops) << name;
  }
}

}  // namespace
}  // namespace pipesched
