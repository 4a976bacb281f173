// Tests for superblock formation (linear-chain merging).
#include <gtest/gtest.h>

#include "core/program_compiler.hpp"
#include "core/superblock.hpp"
#include "frontend/codegen.hpp"
#include "frontend/parser.hpp"
#include "frontend/program_codegen.hpp"
#include "ir/block_parser.hpp"
#include "ir/interp.hpp"
#include "synth/generator.hpp"
#include "util/rng.hpp"

namespace pipesched {
namespace {

TEST(Superblock, ConcatenateOffsetsRefsAndMergesVars) {
  const BasicBlock a = parse_block(
      "1: Const \"5\"\n"
      "2: Store #x, 1\n");
  const BasicBlock b = parse_block(
      "1: Load #x\n"
      "2: Neg 1\n"
      "3: Store #y, 2\n");
  const BasicBlock merged = concatenate_blocks(a, b);
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged.tuple(2).op, Opcode::Load);
  // b's Neg referenced its tuple 1 -> now tuple 3 (offset by 2).
  EXPECT_EQ(merged.tuple(3).a.ref, 2);
  // 'x' is the same variable in both halves.
  EXPECT_EQ(merged.tuple(1).a.var, merged.tuple(2).a.var);
  // Memory dependence store->load is now intra-block.
  const ExecResult exec = interpret(merged);
  EXPECT_EQ(exec.final_vars.at(merged.find_var("y")), -5);
}

TEST(Superblock, MergesWhileLoopPreheader) {
  // The while lowering produces pre -> HEAD with HEAD having two preds
  // (pre + back edge): NOT mergeable. But straight if-arms rejoin through
  // jump/fallthrough chains that are.
  const Program prog = generate_program(parse_source(
      "a = 1;\n"
      "while (n) { n = n - 1; }\n"
      "b = 2;\n"));
  const SuperblockResult merged = merge_linear_chains(prog);
  // pre->head blocked (head has the back edge), body->exit blocked
  // (exit also reached by head's branch): nothing merges here.
  EXPECT_EQ(merged.merges, 0);
  EXPECT_EQ(merged.program.size(), prog.size());
}

TEST(Superblock, MergesIfArmIntoJoinWhenLinear) {
  // if without else: cond -Branch-> END, THEN -FallThrough-> END.
  // END has two preds: no merge of THEN->END. But a chain of two
  // straight-line statements split artificially merges.
  Program prog;
  const BlockId b0 = prog.add_block("p0");
  prog.block_mut(b0).block = parse_block("1: Const \"1\"\n2: Store #x, 1\n");
  prog.block_mut(b0).term = Terminator::fall_through();
  const BlockId b1 = prog.add_block("p1");
  prog.block_mut(b1).block = parse_block("1: Load #x\n2: Store #y, 1\n");
  prog.block_mut(b1).term = Terminator::jump(2);
  const BlockId b2 = prog.add_block("p2");
  prog.block_mut(b2).block = parse_block("1: Load #y\n2: Store #z, 1\n");
  prog.block_mut(b2).term = Terminator::ret();
  prog.validate();

  const SuperblockResult merged = merge_linear_chains(prog);
  EXPECT_EQ(merged.merges, 2);
  ASSERT_EQ(merged.program.size(), 1u);
  EXPECT_EQ(merged.program.block(0).term.kind, Terminator::Kind::Return);
  // Semantics preserved.
  const auto before = interpret_program(prog);
  const auto after = interpret_program(merged.program);
  EXPECT_EQ(before.final_vars, after.final_vars);
}

TEST(Superblock, RemapsBranchTargetsAcrossMerges) {
  // Layout: A (falls into B), B (branch back to A-merged region? no —
  // forward): build A->B merged chain followed by a branch to a later
  // block whose id shifts.
  Program prog;
  const BlockId a = prog.add_block("A");
  prog.block_mut(a).block = parse_block("1: Const \"1\"\n2: Store #c, 1\n");
  prog.block_mut(a).term = Terminator::fall_through();
  const BlockId b = prog.add_block("B");
  prog.block_mut(b).block = parse_block("1: Load #c\n2: Store #d, 1\n");
  prog.block_mut(b).term = Terminator::branch("c", 3);
  const BlockId c = prog.add_block("C");
  prog.block_mut(c).block = parse_block("1: Const \"7\"\n2: Store #e, 1\n");
  prog.block_mut(c).term = Terminator::fall_through();
  const BlockId d = prog.add_block("D");
  prog.block_mut(d).block = parse_block("1: Const \"9\"\n2: Store #f, 1\n");
  prog.block_mut(d).term = Terminator::ret();
  prog.validate();

  const SuperblockResult merged = merge_linear_chains(prog);
  // A+B merge; C and D survive (C reached by fall-through from merged AB
  // *and* nothing else; D reached by branch + fallthrough from C).
  EXPECT_EQ(merged.merges, 1);
  ASSERT_EQ(merged.program.size(), 3u);
  EXPECT_EQ(merged.program.block(0).term.kind, Terminator::Kind::Branch);
  EXPECT_EQ(merged.program.block(0).term.target, 2);  // D's new id
  const auto before = interpret_program(prog, {{"c", 0}});
  const auto after = interpret_program(merged.program, {{"c", 0}});
  EXPECT_EQ(before.final_vars, after.final_vars);
}

TEST(Superblock, PreservesSemanticsOnGeneratedCfgs) {
  Rng rng(31);
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    std::string source =
        "x = a + b;\n"
        "if (x) { y = x * 2; } else { y = a - b; }\n"
        "z = y + x;\n"
        "if (z - 4) { w = z * z; }\n"
        "out = w + y + z;\n";
    const Program prog = generate_program(parse_source(source));
    const SuperblockResult merged = merge_linear_chains(prog);
    ProgramEnv env;
    env["a"] = rng.next_in(-9, 9);
    env["b"] = rng.next_in(-9, 9);
    env["w"] = rng.next_in(-9, 9);
    const auto before = interpret_program(prog, env);
    const auto after = interpret_program(merged.program, env);
    EXPECT_EQ(before.final_vars, after.final_vars) << seed;
  }
}

TEST(Superblock, WidensSchedulingAndOptimizationScope) {
  // Two artificial cuts in a straight-line computation: merging lets the
  // optimizer forward x across the cut and the scheduler overlap the
  // loads, so merged compilation needs no more (and here strictly fewer)
  // total cycles.
  Program prog;
  const BlockId b0 = prog.add_block();
  prog.block_mut(b0).block =
      generate_tuples(parse_source("x = a * b;"), "part1");
  prog.block_mut(b0).term = Terminator::fall_through();
  const BlockId b1 = prog.add_block();
  prog.block_mut(b1).block =
      generate_tuples(parse_source("y = x * c;"), "part2");
  prog.block_mut(b1).term = Terminator::ret();

  ProgramCompileOptions options;
  options.block.search.curtail_lambda = 20000;
  const ProgramCompileResult split_result = compile_program(prog, options);
  const SuperblockResult merged = merge_linear_chains(prog);
  const ProgramCompileResult merged_result =
      compile_program(merged.program, options);

  EXPECT_LT(merged_result.total_instructions,
            split_result.total_instructions);  // x load forwarded away
  EXPECT_LE(merged_result.total_nops + merged_result.total_instructions,
            split_result.total_nops + split_result.total_instructions);
}

TEST(Superblock, FracturedChainsCompileIdenticallyAfterMerge) {
  // Semantics fuzz: straight-line programs fractured one-block-per-
  // statement, merged back, compiled both ways — interpreter agreement
  // and strictly fewer (or equal) blocks.
  Rng rng(808);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GeneratorParams params;
    params.statements = 6;
    params.variables = 4;
    params.constants = 2;
    params.seed = seed * 41;
    const SourceProgram source = generate_source(params);

    Program fractured;
    for (std::size_t st = 0; st < source.statements.size(); ++st) {
      BlockEmitter emitter(source);
      emitter.emit_assign(source.statements[st].target,
                          source.statements[st].value);
      const BlockId id = fractured.add_block();
      fractured.block_mut(id).block = emitter.take();
      fractured.block_mut(id).term =
          st + 1 == source.statements.size() ? Terminator::ret()
                                             : Terminator::fall_through();
    }
    fractured.validate();
    const SuperblockResult merged = merge_linear_chains(fractured);
    EXPECT_EQ(merged.program.size(), 1u) << seed;

    ProgramEnv env;
    for (int v = 0; v < params.variables; ++v) {
      env[std::string("v").append(std::to_string(v))] = rng.next_in(-30, 30);
    }
    EXPECT_EQ(interpret_program(fractured, env).final_vars,
              interpret_program(merged.program, env).final_vars)
        << seed;

    // And both compile cleanly.
    ProgramCompileOptions options;
    options.block.search.curtail_lambda = 5000;
    EXPECT_GE(compile_program(fractured, options).total_nops,
              compile_program(merged.program, options).total_nops)
        << seed;
  }
}

}  // namespace
}  // namespace pipesched
