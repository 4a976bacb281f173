// Tests for register-pressure-constrained scheduling and spill-code
// creation (paper Section 3.1).
#include <gtest/gtest.h>

#include <limits>

#include "core/compiler.hpp"
#include "ir/block_parser.hpp"
#include "ir/dag.hpp"
#include "ir/interp.hpp"
#include "regalloc/regalloc.hpp"
#include "regalloc/spill.hpp"
#include "sched/optimal_scheduler.hpp"
#include "synth/generator.hpp"
#include "util/rng.hpp"

namespace pipesched {
namespace {

/// Max pressure of a schedule order (allocator convention).
int order_max_pressure(const BasicBlock& block,
                       const std::vector<TupleIndex>& order) {
  return max_live(compute_live_ranges(block, order));
}

/// Brute-force reference: minimum NOPs over all legal orders whose
/// pressure stays within `limit`; -1 when none exists.
int brute_force_constrained_optimum(const Machine& machine,
                                    const DepGraph& dag, int limit) {
  const std::size_t n = dag.size();
  std::vector<TupleIndex> order;
  std::vector<bool> used(n, false);
  int best = -1;
  auto recurse = [&](auto&& self) -> void {
    if (order.size() == n) {
      if (order_max_pressure(dag.block(), order) > limit) return;
      const int nops = evaluate_order(machine, dag, order).total_nops();
      if (best < 0 || nops < best) best = nops;
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      bool ready = true;
      for (TupleIndex p : dag.preds(static_cast<TupleIndex>(i))) {
        if (!used[static_cast<std::size_t>(p)]) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;
      used[i] = true;
      order.push_back(static_cast<TupleIndex>(i));
      self(self);
      order.pop_back();
      used[i] = false;
    }
  };
  recurse(recurse);
  return best;
}

TEST(Pressure, ConstrainedSearchMatchesBruteForce) {
  const Machine machine = Machine::paper_simulation();
  std::vector<BasicBlock> blocks;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    GeneratorParams params;
    params.statements = 4;
    params.variables = 4;
    params.constants = 2;
    params.seed = seed * 3;
    BasicBlock block = generate_block(params);
    if (block.empty() || block.size() > 10) continue;
    blocks.push_back(std::move(block));
  }
  // Generated blocks read every result. Here nothing reads tuple 3, so
  // its value dies at once, and under a ceiling of 3 the cheapest order
  // must still place it between the loads and the add.
  blocks.push_back(parse_block(
      "1: Load #a\n"
      "2: Load #b\n"
      "3: Load #c\n"
      "4: Add 1, 2\n"
      "5: Store #x, 4\n"));
  int checked = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const BasicBlock& block = blocks[b];
    const DepGraph dag(block);
    for (int limit = 3; limit <= 6; ++limit) {
      const int truth =
          brute_force_constrained_optimum(machine, dag, limit);
      SearchConfig config;
      config.curtail_lambda = 0;
      config.max_live_registers = limit;
      const ScheduleResult result = optimal_schedule(machine, dag, config);
      if (truth < 0) {
        EXPECT_FALSE(result.stats.feasible)
            << "block " << b << " limit " << limit;
      } else {
        ASSERT_TRUE(result.stats.feasible)
            << "block " << b << " limit " << limit;
        EXPECT_EQ(result.schedule.total_nops(), truth)
            << "block " << b << " limit " << limit;
        EXPECT_LE(order_max_pressure(block, result.schedule.order), limit);
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 20);
}

TEST(Pressure, TighterLimitNeverReducesNops) {
  const Machine machine = Machine::risc_classic();
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    GeneratorParams params;
    params.statements = 7;
    params.variables = 4;
    params.constants = 2;
    params.seed = seed * 11;
    const BasicBlock block = generate_block(params);
    if (block.empty()) continue;
    const DepGraph dag(block);
    // Walking DOWN the limits, the constrained optimum may only grow.
    int previous = -1;
    for (int limit : {16, 6, 4, 3}) {
      SearchConfig config;
      config.curtail_lambda = 0;  // to exhaustion: exact optima
      config.max_live_registers = limit;
      const ScheduleResult result = optimal_schedule(machine, dag, config);
      if (!result.stats.feasible) break;
      EXPECT_GE(result.schedule.total_nops(), previous)
          << "seed " << seed << " limit " << limit;
      previous = result.schedule.total_nops();
    }
  }
}

TEST(Pressure, InfeasibleSearchDoesNotMasqueradeAsOptimal) {
  // Regression: an infeasible constrained search used to return the
  // pressure-infeasible seed schedule with its finite NOP count in
  // stats.best_nops, indistinguishable from a real optimum. Four values
  // must be simultaneously live here, so a ceiling of 2 is infeasible
  // for any order.
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Load #b\n"
      "3: Load #c\n"
      "4: Add 1, 2\n"
      "5: Add 4, 3\n"
      "6: Store #x, 5\n");
  const DepGraph dag(block);
  SearchConfig config;
  config.curtail_lambda = 0;
  config.max_live_registers = 2;
  const ScheduleResult result =
      optimal_schedule(Machine::paper_simulation(), dag, config);
  EXPECT_FALSE(result.stats.feasible);
  EXPECT_EQ(result.stats.best_nops, -1);

  // run_scheduler must preserve the sentinel instead of re-deriving a
  // finite cost from the diagnostic seed schedule.
  const ScheduleResult scheduled = run_scheduler(
      SchedulerKind::Optimal, Machine::paper_simulation(), dag, config);
  EXPECT_FALSE(scheduled.stats.feasible);
  EXPECT_EQ(scheduled.stats.best_nops, -1);

  // The register-limited driver recovers via the post-spill original
  // order: feasibility is surfaced, and its reported cost is real.
  CompileOptions options;
  options.registers = 4;
  const RegisterLimitedResult compiled =
      compile_with_register_limit(block, options);
  EXPECT_GE(compiled.compiled.stats.best_nops, 0);
  EXPECT_FALSE(compiled.compiled.assembly.empty());
}

TEST(Spill, BlockMaxLiveMatchesRangeAnalysis) {
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Load #b\n"
      "3: Load #c\n"
      "4: Add 1, 2\n"
      "5: Add 4, 3\n"
      "6: Store #x, 5\n");
  EXPECT_EQ(block_max_live(block), 4);
}

TEST(Spill, ReducesPressureToTarget) {
  // Wide fan-in: many loads alive at once.
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Load #b\n"
      "3: Load #c\n"
      "4: Load #d\n"
      "5: Load #e\n"
      "6: Add 1, 2\n"
      "7: Add 6, 3\n"
      "8: Add 7, 4\n"
      "9: Add 8, 5\n"
      "10: Store #x, 9\n");
  ASSERT_GT(block_max_live(block), 4);
  const SpillResult spilled = insert_spill_code(block, 4);
  EXPECT_LE(block_max_live(spilled.block), 4);
  EXPECT_GT(spilled.values_spilled, 0);
}

TEST(Spill, PreservesSemantics) {
  Rng rng(7);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    GeneratorParams params;
    params.statements = 10;
    params.variables = 6;
    params.constants = 3;
    params.seed = seed * 17;
    const BasicBlock block = generate_block(params);
    if (block.empty() || block_max_live(block) <= 3) continue;
    const SpillResult spilled = insert_spill_code(block, 3);
    EXPECT_LE(block_max_live(spilled.block), 3) << seed;

    VarEnv initial;
    for (std::size_t v = 0; v < block.var_count(); ++v) {
      initial[static_cast<VarId>(v)] = rng.next_in(-20, 20);
    }
    const VarEnv expected = interpret(block, initial).final_vars;
    // Spill temporaries introduce new VarIds in the rewritten block; match
    // by name on the original variables.
    VarEnv spilled_initial;
    for (std::size_t v = 0; v < spilled.block.var_count(); ++v) {
      const std::string& name =
          spilled.block.var_name(static_cast<VarId>(v));
      const VarId original = block.find_var(name);
      if (original >= 0 && initial.count(original)) {
        spilled_initial[static_cast<VarId>(v)] = initial.at(original);
      }
    }
    const VarEnv got = interpret(spilled.block, spilled_initial).final_vars;
    for (const auto& [var, value] : expected) {
      const VarId mapped = spilled.block.find_var(block.var_name(var));
      ASSERT_GE(mapped, 0);
      EXPECT_EQ(got.at(mapped), value)
          << "seed " << seed << " var " << block.var_name(var);
    }
  }
}

TEST(Spill, RejectsImpossibleTargets) {
  const BasicBlock block = parse_block("1: Load #a\n2: Store #b, 1\n");
  EXPECT_THROW(insert_spill_code(block, 2), Error);
}

TEST(RegisterLimit, EndToEndFitsTheFile) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    GeneratorParams params;
    params.statements = 12;
    params.variables = 7;
    params.constants = 3;
    params.seed = seed * 29;
    const BasicBlock block = generate_block(params);
    if (block.empty()) continue;

    CompileOptions options;
    options.registers = 4;
    options.search.curtail_lambda = 50000;
    const RegisterLimitedResult result =
        compile_with_register_limit(block, options);
    EXPECT_LE(result.compiled.allocation.registers_used, 4) << seed;
    EXPECT_TRUE(verify_allocation(result.compiled.block,
                                  result.compiled.schedule.order,
                                  result.compiled.allocation))
        << seed;
    const DepGraph dag(result.compiled.block);
    EXPECT_TRUE(dag.is_legal_order(result.compiled.schedule.order)) << seed;
  }
}

TEST(RegisterLimit, SpillsOnlyWhenNecessary) {
  // A chain never exceeds 2 live values: no spills with 3 registers.
  const BasicBlock chain = parse_block(
      "1: Load #a\n"
      "2: Neg 1\n"
      "3: Neg 2\n"
      "4: Store #a, 3\n");
  CompileOptions options;
  options.registers = 3;
  options.optimize = false;
  const RegisterLimitedResult result =
      compile_with_register_limit(chain, options);
  EXPECT_EQ(result.values_spilled, 0);
  EXPECT_EQ(result.compiled.stats.outcome(), SearchOutcome::Optimal);
}

TEST(RegisterLimit, TightFilesCostNops) {
  // Aggregate: fewer registers => no fewer NOPs (spill loads + less
  // freedom for the scheduler).
  long nops_wide = 0;
  long nops_tight = 0;
  for (std::uint64_t seed = 40; seed <= 60; ++seed) {
    GeneratorParams params;
    params.statements = 10;
    params.variables = 6;
    params.constants = 2;
    params.seed = seed;
    const BasicBlock block = generate_block(params);
    if (block.empty()) continue;
    CompileOptions wide;
    wide.registers = 32;
    wide.search.curtail_lambda = 50000;
    CompileOptions tight = wide;
    tight.registers = 3;
    nops_wide +=
        compile_with_register_limit(block, wide).compiled.schedule.total_nops();
    nops_tight += compile_with_register_limit(block, tight)
                      .compiled.schedule.total_nops();
  }
  EXPECT_GE(nops_tight, nops_wide);
}

}  // namespace
}  // namespace pipesched
