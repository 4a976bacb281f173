// Tests for register-pressure-constrained scheduling and spill-code
// creation (paper Section 3.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>

#include "core/compiler.hpp"
#include "ir/block_parser.hpp"
#include "ir/dag.hpp"
#include "ir/interp.hpp"
#include "regalloc/regalloc.hpp"
#include "regalloc/spill.hpp"
#include "sched/optimal_scheduler.hpp"
#include "synth/generator.hpp"
#include "util/check.hpp"
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

// --- Reference oracle: spill insertion one round at a time ---------------
//
// The round-by-round algorithm insert_spill_code replaced. Each round
// recomputes every live range, finds the first position whose pressure
// exceeds the target, spills the Belady victim there (the live value not
// read there whose next read is farthest, the earliest defined among
// ties) and rebuilds the whole block. Slow but obviously right; the sweep
// must match it byte for byte.

std::vector<TupleIndex> identity_order(std::size_t n) {
  std::vector<TupleIndex> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<TupleIndex>(i);
  return order;
}

/// Positions (ascending) at which each value is read.
std::vector<std::vector<TupleIndex>> use_positions(const BasicBlock& block) {
  std::vector<std::vector<TupleIndex>> uses(block.size());
  for (std::size_t i = 0; i < block.size(); ++i) {
    const Tuple& t = block.tuple(static_cast<TupleIndex>(i));
    for (const Operand* o : {&t.a, &t.b}) {
      if (o->is_ref()) {
        uses[static_cast<std::size_t>(o->ref)].push_back(
            static_cast<TupleIndex>(i));
      }
    }
  }
  return uses;
}

/// One spill transformation: value `victim` is stored to `spill_var`
/// right after its definition; uses at positions > split are redirected
/// to a reload inserted immediately before the first such use.
BasicBlock apply_spill(const BasicBlock& block, TupleIndex victim,
                       TupleIndex split, const std::string& spill_var) {
  BasicBlock out(block.label());
  for (std::size_t v = 0; v < block.var_count(); ++v) {
    out.var_id(block.var_name(static_cast<VarId>(v)));
  }
  const VarId slot = out.var_id(spill_var);

  std::vector<TupleIndex> new_of_old(block.size(), -1);
  TupleIndex reload = -1;

  auto remap = [&](Operand o, TupleIndex user) {
    if (!o.is_ref()) return o;
    if (o.ref == victim && user > split) {
      EXPECT_GE(reload, 0);
      return Operand::of_ref(reload);
    }
    return Operand::of_ref(new_of_old[static_cast<std::size_t>(o.ref)]);
  };

  for (std::size_t i = 0; i < block.size(); ++i) {
    const auto old_index = static_cast<TupleIndex>(i);
    const Tuple& t = block.tuple(old_index);

    // First use past the split point: reload just before it.
    if (reload < 0 && old_index > split) {
      bool uses_victim = (t.a.is_ref() && t.a.ref == victim) ||
                         (t.b.is_ref() && t.b.ref == victim);
      if (uses_victim) {
        reload = out.append(Opcode::Load, Operand::of_var(slot));
      }
    }

    Tuple rewritten = t;
    rewritten.a = remap(t.a, old_index);
    rewritten.b = remap(t.b, old_index);
    new_of_old[i] = out.append(rewritten);

    if (old_index == victim) {
      out.append(Opcode::Store, Operand::of_var(slot),
                 Operand::of_ref(new_of_old[i]));
    }
  }
  out.validate();
  return out;
}

SpillResult reference_spill(const BasicBlock& block, int max_live_target) {
  PS_CHECK(max_live_target >= 3,
           "spill insertion needs a target of at least 3 registers "
           "(two operands plus a result)");
  SpillResult result;
  result.block = block;

  // Each round removes one value from the first over-pressure point; the
  // loop is bounded because every round strictly shrinks some live range.
  for (int round = 0; round < 10000; ++round) {
    const std::size_t n = result.block.size();
    const auto ranges =
        compute_live_ranges(result.block, identity_order(n));
    const auto uses = use_positions(result.block);

    // Find the first position where pressure exceeds the target.
    std::vector<int> pressure(n, 0);
    for (const LiveRange& r : ranges) {
      for (int p = r.def_pos; p <= r.last_use_pos; ++p) ++pressure[p];
    }
    std::optional<int> hot;
    for (std::size_t p = 0; p < n; ++p) {
      if (pressure[p] > max_live_target) {
        hot = static_cast<int>(p);
        break;
      }
    }
    if (!hot) return result;

    // Belady: among values live across *hot* with no use at it and a use
    // after it, spill the one whose next use is farthest away.
    TupleIndex victim = -1;
    TupleIndex victim_next_use = -1;
    for (const LiveRange& r : ranges) {
      if (r.def_pos >= *hot || r.last_use_pos <= *hot) continue;
      const auto& reads = uses[static_cast<std::size_t>(r.tuple)];
      if (std::binary_search(reads.begin(), reads.end(),
                             static_cast<TupleIndex>(*hot))) {
        continue;  // operand of the hot instruction itself
      }
      const auto next = std::upper_bound(reads.begin(), reads.end(),
                                         static_cast<TupleIndex>(*hot));
      if (next == reads.end()) continue;
      if (*next > victim_next_use) {
        victim = r.tuple;
        victim_next_use = *next;
      }
    }
    PS_CHECK(victim >= 0,
             "cannot reduce register pressure below "
                 << max_live_target << " at position " << *hot + 1
                 << " (every live value is used there)");

    result.block = apply_spill(result.block, victim,
                               static_cast<TupleIndex>(*hot),
                               ".s" + std::to_string(result.values_spilled));
    ++result.values_spilled;
  }
  throw Error("spill insertion did not converge");
}

/// Everything a spill run produces, as text: the listing, the variable
/// table and the spill count, or the Error text.
std::string spill_outcome(const BasicBlock& block, int target,
                          SpillResult (*spill)(const BasicBlock&, int)) {
  try {
    const SpillResult result = spill(block, target);
    std::string out = result.block.to_string();
    for (std::size_t v = 0; v < result.block.var_count(); ++v) {
      out.append(result.block.var_name(static_cast<VarId>(v))).append(" ");
    }
    return out.append("\nspilled ").append(
        std::to_string(result.values_spilled));
  } catch (const Error& e) {
    return std::string("error: ").append(e.what());
  }
}

TEST(Spill, SweepMatchesRoundByRoundReference) {
  int blocks = 0;
  int spilling = 0;
  int refused = 0;
  for (std::uint64_t k = 0; k < 3000; ++k) {
    GeneratorParams params;
    params.statements = 3 + static_cast<int>(k % 47);
    params.variables = 3 + static_cast<int>((k / 47) % 17);
    params.constants = 1 + static_cast<int>(k % 4);
    params.seed = 0x5b1117ull + k;
    // Every fourth block skips the optimizer: more loads, other shapes.
    params.optimize = k % 4 != 0;
    const BasicBlock block = generate_block(params);
    ++blocks;
    // Below 3 every block is refused: the error texts must match too.
    for (const int target : {2, 3, 4, 5, 6, 8, 12, 16}) {
      const std::string expected =
          spill_outcome(block, target, reference_spill);
      ASSERT_EQ(spill_outcome(block, target, insert_spill_code), expected)
          << "block " << k << ", target " << target << "\n"
          << block.to_string();
      spilling += expected.rfind("error: ", 0) != 0 &&
                  expected.substr(expected.rfind(' ') + 1) != "0";
      refused += expected.rfind("error: ", 0) == 0;
    }
  }
  EXPECT_EQ(blocks, 3000);
  EXPECT_EQ(refused, blocks);
  // The set must exercise the spill path, not just blocks that fit.
  EXPECT_GT(spilling, 5000);
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
