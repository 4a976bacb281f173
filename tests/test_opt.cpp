// Tests for the optimizer (Section 3.1), including the semantic-
// preservation property it must satisfy.
#include <gtest/gtest.h>

#include "frontend/codegen.hpp"
#include "frontend/opt/passes.hpp"
#include "frontend/parser.hpp"
#include "ir/block_parser.hpp"
#include "ir/dag.hpp"
#include "sched/optimal_scheduler.hpp"
#include "ir/interp.hpp"
#include "synth/generator.hpp"
#include "util/rng.hpp"

namespace pipesched {
namespace {

int count_op(const BasicBlock& block, Opcode op) {
  int n = 0;
  for (const Tuple& t : block.tuples()) n += t.op == op;
  return n;
}

TEST(ConstantFolding, FoldsArithmeticChains) {
  const BasicBlock block = parse_block(
      "1: Const \"6\"\n"
      "2: Const \"7\"\n"
      "3: Mul 1, 2\n"
      "4: Const \"2\"\n"
      "5: Add 3, 4\n"
      "6: Store #x, 5\n");
  const BasicBlock out = run_standard_pipeline(block);
  // Mul and Add both become Consts within ONE sweep (folds chain through
  // the value numbers).
  EXPECT_EQ(count_op(out, Opcode::Mul), 0);
  EXPECT_EQ(count_op(out, Opcode::Add), 0);
  EXPECT_EQ(out.size(), 2u);
  const ExecResult exec = interpret(out);
  EXPECT_EQ(exec.final_vars.at(out.find_var("x")), 44);
}

TEST(ConstantFolding, FoldsDivByZeroWithInterpreterConvention) {
  const BasicBlock block = parse_block(
      "1: Const \"9\"\n"
      "2: Const \"0\"\n"
      "3: Div 1, 2\n"
      "4: Store #x, 3\n");
  const BasicBlock out = run_standard_pipeline(block);
  EXPECT_EQ(count_op(out, Opcode::Div), 0);
  const ExecResult exec = interpret(out);
  EXPECT_EQ(exec.final_vars.at(out.find_var("x")), 0);
}

TEST(CopyPropagation, CollapsesMovChains) {
  BasicBlock block;
  const VarId x = block.var_id("x");
  const TupleIndex load = block.append(Opcode::Load, Operand::of_var(x));
  const TupleIndex m1 = block.append(Opcode::Mov, Operand::of_ref(load));
  const TupleIndex m2 = block.append(Opcode::Mov, Operand::of_ref(m1));
  block.append(Opcode::Store, Operand::of_var(x), Operand::of_ref(m2));
  const BasicBlock out = run_standard_pipeline(block);
  EXPECT_EQ(count_op(out, Opcode::Mov), 0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.tuple(1).b.ref, 0);  // Store reads the Load
}

TEST(Algebraic, SimplifiesIdentities) {
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Const \"0\"\n"
      "3: Add 1, 2\n"      // a + 0 -> a
      "4: Const \"1\"\n"
      "5: Mul 3, 4\n"      // a * 1 -> a
      "6: Sub 5, 1\n"      // a - a -> 0
      "7: Store #x, 6\n");
  const BasicBlock out = run_standard_pipeline(block);
  // The store's value must resolve to a constant zero.
  const ExecResult exec = interpret(out, {{out.find_var("a"), 123}});
  EXPECT_EQ(exec.final_vars.at(out.find_var("x")), 0);
  EXPECT_EQ(count_op(out, Opcode::Sub), 0);
  EXPECT_EQ(out.size(), 2u);  // Const 0 and the Store
}

TEST(Algebraic, StrengthReducesMulByTwo) {
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Const \"2\"\n"
      "3: Mul 1, 2\n"
      "4: Store #x, 3\n");
  const BasicBlock out = run_standard_pipeline(block);
  EXPECT_EQ(count_op(out, Opcode::Mul), 0);
  EXPECT_EQ(count_op(out, Opcode::Add), 1);
  const ExecResult exec = interpret(out, {{out.find_var("a"), 21}});
  EXPECT_EQ(exec.final_vars.at(out.find_var("x")), 42);
}

TEST(Algebraic, DoubleNegationCancels) {
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Neg 1\n"
      "3: Neg 2\n"
      "4: Store #x, 3\n");
  const BasicBlock out = run_standard_pipeline(block);
  // Store now reads the Load directly; the dead inner Neg goes in DCE.
  EXPECT_EQ(count_op(out, Opcode::Neg), 0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.tuple(1).b.ref, 0);
}

TEST(LoadForwarding, ReusesStoredValue) {
  const BasicBlock block = parse_block(
      "1: Const \"5\"\n"
      "2: Store #a, 1\n"
      "3: Load #a\n"
      "4: Neg 3\n"
      "5: Store #b, 4\n");
  const BasicBlock out = run_standard_pipeline(block);
  EXPECT_EQ(count_op(out, Opcode::Load), 0);
  const ExecResult exec = interpret(out);
  EXPECT_EQ(exec.final_vars.at(out.find_var("b")), -5);
}

TEST(LoadForwarding, MergesRepeatedLoads) {
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Load #a\n"
      "3: Add 1, 2\n"
      "4: Store #x, 3\n");
  const BasicBlock out = run_standard_pipeline(block);
  EXPECT_EQ(count_op(out, Opcode::Load), 1);
}

TEST(Cse, MergesPureExpressionsAndRespectsCommutativity) {
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Load #b\n"
      "3: Add 1, 2\n"
      "4: Add 2, 1\n"     // same as 3 by commutativity
      "5: Mul 3, 4\n"
      "6: Store #x, 5\n");
  const BasicBlock out = run_standard_pipeline(block);
  EXPECT_EQ(count_op(out, Opcode::Add), 1);
  // Mul now squares the single Add.
  const ExecResult exec =
      interpret(out, {{out.find_var("a"), 3}, {out.find_var("b"), 4}});
  EXPECT_EQ(exec.final_vars.at(out.find_var("x")), 49);
}

TEST(Cse, DoesNotMergeLoadsAcrossStores) {
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Const \"9\"\n"
      "3: Store #a, 2\n"
      "4: Load #a\n"
      "5: Add 1, 4\n"
      "6: Store #x, 5\n");
  const BasicBlock out = run_standard_pipeline(block);
  // The second Load reads the stored 9, not the first Load's value.
  const ExecResult exec = interpret(out, {{out.find_var("a"), 5}});
  EXPECT_EQ(exec.final_vars.at(out.find_var("a")), 9);
  EXPECT_EQ(exec.final_vars.at(out.find_var("x")), 14);
}

TEST(Cse, DoesNotMergeNonCommutativeSwaps) {
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Load #b\n"
      "3: Sub 1, 2\n"
      "4: Sub 2, 1\n"
      "5: Mul 3, 4\n"
      "6: Store #x, 5\n");
  const BasicBlock out = run_standard_pipeline(block);
  EXPECT_EQ(count_op(out, Opcode::Sub), 2);
}

TEST(Dce, RemovesUnobservableStoresAndTheirInputs) {
  const BasicBlock block = parse_block(
      "1: Const \"1\"\n"
      "2: Store #a, 1\n"   // overwritten before any read: dead
      "3: Const \"2\"\n"
      "4: Store #a, 3\n");
  const PassResult result = dead_code_elimination(block);
  EXPECT_TRUE(result.changed);
  EXPECT_EQ(result.block.size(), 2u);
  const ExecResult exec = interpret(result.block);
  EXPECT_EQ(exec.final_vars.at(result.block.find_var("a")), 2);
}

TEST(Dce, KeepsStoresObservedByLoads) {
  const BasicBlock block = parse_block(
      "1: Const \"1\"\n"
      "2: Store #a, 1\n"
      "3: Load #a\n"       // reads store 2
      "4: Store #b, 3\n"
      "5: Const \"2\"\n"
      "6: Store #a, 5\n");
  const PassResult result = dead_code_elimination(block);
  EXPECT_EQ(count_op(result.block, Opcode::Store), 3);
}

TEST(Dce, RemovesDeadLoads) {
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Load #b\n"
      "3: Store #x, 2\n");
  const PassResult result = dead_code_elimination(block);
  EXPECT_EQ(count_op(result.block, Opcode::Load), 1);
}

TEST(Reassociation, BalancesAdditionChains) {
  // ((((a+b)+c)+d)+e): height 4 chain -> balanced height 3 tree.
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
  const PassResult result = reassociation(block);
  EXPECT_TRUE(result.changed);
  const BasicBlock cleaned = dead_code_elimination(result.block).block;
  const DepGraph before(block);
  const DepGraph after(cleaned);
  EXPECT_LT(after.critical_path_length(), before.critical_path_length());
  // Semantics: a+b+c+d+e with a..e = 1..5 -> 15.
  VarEnv env;
  for (std::size_t v = 0; v < cleaned.var_count(); ++v) {
    const std::string& name = cleaned.var_name(static_cast<VarId>(v));
    if (name.size() == 1 && name[0] >= 'a' && name[0] <= 'e') {
      env[static_cast<VarId>(v)] = name[0] - 'a' + 1;
    }
  }
  EXPECT_EQ(interpret(cleaned, env).final_vars.at(cleaned.find_var("x")), 15);
}

TEST(Reassociation, LeavesMultiUseInteriorNodesAlone) {
  // The (a+b) value is used twice: it must not be duplicated or folded.
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Load #b\n"
      "3: Add 1, 2\n"
      "4: Add 3, 1\n"
      "5: Store #x, 4\n"
      "6: Store #y, 3\n");
  const PassResult result = reassociation(block);
  EXPECT_FALSE(result.changed);
}

TEST(Reassociation, DoesNotTouchNonAssociativeOps) {
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Load #b\n"
      "3: Load #c\n"
      "4: Sub 1, 2\n"
      "5: Sub 4, 3\n"
      "6: Store #x, 5\n");
  EXPECT_FALSE(reassociation(block).changed);
}

TEST(Reassociation, PreservesSemanticsOnRandomPrograms) {
  Rng rng(606);
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    GeneratorParams params;
    params.statements = 10;
    params.variables = 4;
    params.constants = 3;
    params.seed = seed * 7 + 1;
    params.optimize = false;
    const BasicBlock block = generate_tuples(generate_source(params));
    VarEnv initial;
    for (std::size_t v = 0; v < block.var_count(); ++v) {
      initial[static_cast<VarId>(v)] = rng.next_in(-40, 40);
    }
    const VarEnv expected = interpret(block, initial).final_vars;
    const PassResult result = reassociation(block);
    const VarEnv got = interpret(result.block, initial).final_vars;
    EXPECT_EQ(got, expected) << seed;
    // And composed with the standard pipeline afterwards.
    const BasicBlock full = run_standard_pipeline(result.block);
    EXPECT_EQ(interpret(full, initial).final_vars, expected) << seed;
  }
}

TEST(Reassociation, ShortensSchedulesOnDeepChains) {
  // The scheduling payoff: a long multiply chain on the paper machine.
  const BasicBlock block = generate_tuples(
      parse_source("p = a * b * c * d * e * f * g * h;"));
  const Machine machine = Machine::paper_simulation();
  const BasicBlock plain = run_standard_pipeline(block);
  const BasicBlock balanced =
      run_standard_pipeline(reassociation(block).block);
  SearchConfig config;
  config.curtail_lambda = 100000;
  const int nops_plain =
      optimal_schedule(machine, DepGraph(plain), config).schedule.total_nops();
  const int nops_balanced =
      optimal_schedule(machine, DepGraph(balanced), config)
          .schedule.total_nops();
  EXPECT_LT(nops_balanced, nops_plain);
}

TEST(Pipeline, EveryPassPreservesSemanticsOnRandomPrograms) {
  // Property: for random generated programs and random inputs, each public
  // pass (and the whole pipeline) leaves the final variable state unchanged.
  Rng rng(2024);
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    GeneratorParams params;
    params.statements = 9;
    params.variables = 4;
    params.constants = 3;
    params.seed = seed;
    params.optimize = false;
    const SourceProgram source = generate_source(params);
    const BasicBlock block = generate_tuples(source);

    VarEnv initial;
    for (std::size_t v = 0; v < block.var_count(); ++v) {
      initial[static_cast<VarId>(v)] = rng.next_in(-50, 50);
    }
    const VarEnv expected = interpret(block, initial).final_vars;

    const std::pair<const char*, PassResult (*)(const BasicBlock&)>
        kPasses[] = {{"dce", dead_code_elimination},
                     {"reassociation", reassociation}};
    for (const auto& [name, pass] : kPasses) {
      const PassResult result = pass(block);
      VarEnv got = interpret(result.block, initial).final_vars;
      // DCE may drop unread variables from the final state only if they
      // were never stored; compare on the expected keys that still exist.
      for (const auto& [var, value] : got) {
        EXPECT_EQ(value, expected.at(var))
            << name << " seed " << seed << " var " << block.var_name(var);
      }
      EXPECT_EQ(got.size(), expected.size()) << name << " seed " << seed;
    }

    const BasicBlock optimized = run_standard_pipeline(block);
    const VarEnv after = interpret(optimized, initial).final_vars;
    for (const auto& [var, value] : after) {
      EXPECT_EQ(value, expected.at(var)) << "pipeline seed " << seed;
    }
  }
}

TEST(Pipeline, ReachesFixpoint) {
  GeneratorParams params;
  params.statements = 12;
  params.variables = 4;
  params.constants = 2;
  params.seed = 77;
  params.optimize = false;
  const BasicBlock block = generate_tuples(generate_source(params));
  const BasicBlock once = run_standard_pipeline(block);
  const BasicBlock twice = run_standard_pipeline(once);
  EXPECT_EQ(once.to_string(), twice.to_string());
}

TEST(Pipeline, OptimizationShrinksTypicalBlocks) {
  // "The resulting code is usually substantially smaller" (Section 3.1).
  std::size_t before = 0;
  std::size_t after = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    GeneratorParams params;
    params.statements = 10;
    params.variables = 4;
    params.constants = 2;
    params.seed = seed;
    params.optimize = false;
    const BasicBlock raw = generate_tuples(generate_source(params));
    before += raw.size();
    after += run_standard_pipeline(raw).size();
  }
  EXPECT_LT(after, before);
}

/// A random tuple block over one to four variables that uses the forms
/// codegen never emits - Mov, immediate operands, a Load after a Store,
/// a Store of an immediate - next to the ones it does. Small immediates
/// and repeated operands make the algebraic rules and CSE fire often.
BasicBlock random_tuple_block(Rng& rng) {
  BasicBlock block;
  const auto vars = rng.next_in(1, 4);
  for (std::int64_t v = 0; v < vars; ++v) {
    block.var_id(std::string(1, static_cast<char>('a' + v)));
  }
  std::vector<TupleIndex> values;
  const auto var = [&] {
    return Operand::of_var(static_cast<VarId>(rng.next_in(0, vars - 1)));
  };
  const auto operand = [&] {
    if (values.empty() || rng.next_bool(0.3)) {
      return Operand::of_imm(rng.next_in(-2, 3));
    }
    return Operand::of_ref(values[rng.next_below(values.size())]);
  };
  static constexpr Opcode kBinary[] = {Opcode::Add, Opcode::Sub, Opcode::Mul,
                                       Opcode::Div};
  const auto n = rng.next_in(1, 30);
  for (std::int64_t i = 0; i < n; ++i) {
    Tuple t;
    switch (rng.next_in(0, 7)) {
      case 0:
        t = {Opcode::Const, Operand::of_imm(rng.next_in(-2, 3)), {}};
        break;
      case 1:
        t = {Opcode::Load, var(), {}};
        break;
      case 2:
        t = {Opcode::Store, var(), operand()};
        break;
      case 3:
        t = {Opcode::Mov, operand(), {}};
        break;
      case 4:
        t = {Opcode::Neg, operand(), {}};
        break;
      default:
        t = {kBinary[rng.next_below(4)], operand(), operand()};
        break;
    }
    const TupleIndex index = block.append(t);
    if (t.op != Opcode::Store) values.push_back(index);
  }
  return block;
}

TEST(Pipeline, TupleFormBlocksKeepSemanticsReachFixpointAndNeverGrow) {
  Rng rng(424242);
  for (int k = 0; k < 5000; ++k) {
    const BasicBlock block = random_tuple_block(rng);
    VarEnv initial;
    for (std::size_t v = 0; v < block.var_count(); ++v) {
      initial[static_cast<VarId>(v)] = rng.next_in(-9, 9);
    }
    const BasicBlock once = run_standard_pipeline(block);
    ASSERT_EQ(interpret(once, initial).final_vars,
              interpret(block, initial).final_vars)
        << block.to_string();
    ASSERT_EQ(run_standard_pipeline(once).to_string(), once.to_string())
        << block.to_string();
    ASSERT_LE(once.size(), block.size()) << block.to_string();
  }
}

}  // namespace
}  // namespace pipesched
