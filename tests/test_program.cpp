// Tests for control flow: parser extensions, CFG lowering, the program
// interpreter, and whole-program compilation with block-boundary modes.
#include <gtest/gtest.h>

#include "core/program_compiler.hpp"
#include "frontend/parser.hpp"
#include "frontend/program_codegen.hpp"
#include "ir/program.hpp"
#include "ir/program_parser.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pipesched {
namespace {

TEST(SourceParser, ParsesIfElse) {
  const SourceProgram prog = parse_source(
      "x = 1;\n"
      "if (a - b) { x = 2; } else { x = 3; y = 4; }\n"
      "z = x;\n");
  ASSERT_EQ(prog.statements.size(), 3u);
  EXPECT_FALSE(prog.is_straight_line());
  const Stmt& cond = prog.statements[1];
  EXPECT_EQ(cond.kind, Stmt::Kind::If);
  EXPECT_EQ(cond.then_body.size(), 1u);
  EXPECT_EQ(cond.else_body.size(), 2u);
}

TEST(SourceParser, ParsesNestedWhile) {
  const SourceProgram prog = parse_source(
      "i = 10;\n"
      "while (i) {\n"
      "  j = i;\n"
      "  while (j) { j = j - 1; s = s + 1; }\n"
      "  i = i - 1;\n"
      "}\n");
  EXPECT_EQ(prog.statements[1].kind, Stmt::Kind::While);
  EXPECT_EQ(prog.statements[1].then_body[1].kind, Stmt::Kind::While);
}

TEST(SourceParser, ControlFlowRoundTripsThroughToString) {
  const char* source =
      "x = 1;\n"
      "if (a) { x = 2; } else { x = 3; }\n"
      "while (x) { x = x - 1; }\n";
  const SourceProgram prog = parse_source(source);
  const SourceProgram again = parse_source(prog.to_string());
  EXPECT_EQ(again.to_string(), prog.to_string());
}

TEST(SourceParser, RejectsMalformedControlFlow) {
  EXPECT_THROW(parse_source("if (a) x = 1;"), Error);
  EXPECT_THROW(parse_source("if a { x = 1; }"), Error);
  EXPECT_THROW(parse_source("while (a) { x = 1;"), Error);
  EXPECT_THROW(parse_source("else { x = 1; }"), Error);
}

TEST(ProgramCodegen, IfElseShapesTheCfg) {
  const Program prog = generate_program(parse_source(
      "if (a) { x = 1; } else { x = 2; }\n"
      "y = x;\n"));
  // cond | then (jump) | else (fall) | continuation(ret)
  ASSERT_EQ(prog.size(), 4u);
  EXPECT_EQ(prog.block(0).term.kind, Terminator::Kind::Branch);
  EXPECT_TRUE(prog.block(0).term.when_zero);
  EXPECT_EQ(prog.block(0).term.target, 2);  // ELSE entry
  EXPECT_EQ(prog.block(1).term.kind, Terminator::Kind::Jump);
  EXPECT_EQ(prog.block(1).term.target, 3);  // END
  EXPECT_EQ(prog.block(2).term.kind, Terminator::Kind::FallThrough);
  EXPECT_EQ(prog.block(3).term.kind, Terminator::Kind::Return);
}

TEST(ProgramCodegen, WhileShapesTheCfg) {
  const Program prog = generate_program(parse_source(
      "s = 0;\n"
      "while (n) { s = s + n; n = n - 1; }\n"
      "r = s;\n"));
  // pre | head (branch to exit) | body (jump head) | exit(ret)
  ASSERT_EQ(prog.size(), 4u);
  EXPECT_EQ(prog.block(1).term.kind, Terminator::Kind::Branch);
  EXPECT_TRUE(prog.block(1).term.when_zero);
  EXPECT_EQ(prog.block(1).term.target, 3);
  EXPECT_EQ(prog.block(2).term.kind, Terminator::Kind::Jump);
  EXPECT_EQ(prog.block(2).term.target, 1);
}

TEST(ProgramInterp, IfTakesTheRightArm) {
  const Program prog = generate_program(parse_source(
      "if (a) { x = 1; } else { x = 2; }\n"));
  EXPECT_EQ(interpret_program(prog, {{"a", 5}}).final_vars.at("x"), 1);
  EXPECT_EQ(interpret_program(prog, {{"a", 0}}).final_vars.at("x"), 2);
  EXPECT_EQ(interpret_program(prog, {{"a", -3}}).final_vars.at("x"), 1);
}

TEST(ProgramInterp, WhileLoopComputesSum) {
  // Gauss sum 1..10 = 55.
  const Program prog = generate_program(parse_source(
      "s = 0;\n"
      "while (n) { s = s + n; n = n - 1; }\n"));
  const ProgramExecResult result = interpret_program(prog, {{"n", 10}});
  EXPECT_TRUE(result.terminated);
  EXPECT_EQ(result.final_vars.at("s"), 55);
  EXPECT_EQ(result.final_vars.at("n"), 0);
}

TEST(ProgramInterp, StepLimitCatchesInfiniteLoops) {
  const Program prog = generate_program(parse_source(
      "x = 1;\n"
      "while (x) { y = x; }\n"));
  const ProgramExecResult result = interpret_program(prog, {}, 100);
  EXPECT_FALSE(result.terminated);
}

TEST(ProgramText, RoundTripsGeneratedCfgs) {
  const char* source =
      "x = a + b;\n"
      "if (x) { y = x * 2; } else { y = a - b; }\n"
      "while (y) { y = y - 1; s = s + x; }\n"
      "out = s;\n";
  const Program prog = generate_program(parse_source(source));
  const std::string text = program_to_text(prog);
  const Program again = parse_program_text(text);
  ASSERT_EQ(again.size(), prog.size());
  // Exact structural round trip.
  EXPECT_EQ(program_to_text(again), text);
  // Semantic round trip.
  const ProgramEnv env{{"a", 4}, {"b", 1}, {"s", 0}};
  EXPECT_EQ(interpret_program(prog, env).final_vars,
            interpret_program(again, env).final_vars);
}

TEST(ProgramText, ParsesHandWrittenProgram) {
  const Program prog = parse_program_text(
      "program\n"
      "; countdown accumulator\n"
      "block entry\n"
      "  1: Const \"0\"\n"
      "  2: Store #s, 1\n"
      "  fallthrough\n"
      "block head\n"
      "  1: Load #n\n"
      "  2: Store #.c, 1\n"
      "  beqz .c exit\n"
      "block body\n"
      "  1: Load #s\n"
      "  2: Load #n\n"
      "  3: Add 1, 2\n"
      "  4: Store #s, 3\n"
      "  5: Const \"1\"\n"
      "  6: Sub 2, 5\n"
      "  7: Store #n, 6\n"
      "  jump head\n"
      "block exit\n"
      "  1: Load #s\n"
      "  2: Store #out, 1\n"
      "  ret\n");
  ASSERT_EQ(prog.size(), 4u);
  EXPECT_EQ(prog.block(1).term.kind, Terminator::Kind::Branch);
  EXPECT_TRUE(prog.block(1).term.when_zero);
  EXPECT_EQ(prog.block(1).term.target, 3);
  EXPECT_EQ(prog.block(2).term.target, 1);
  const ProgramExecResult run = interpret_program(prog, {{"n", 10}});
  EXPECT_EQ(run.final_vars.at("out"), 55);
}

TEST(ProgramText, DiagnosesFormatErrors) {
  EXPECT_THROW(parse_program_text("block a\n  ret\nblock a\n  ret\n"), Error);
  EXPECT_THROW(parse_program_text("block a\n  jump nowhere\n"), Error);
  EXPECT_THROW(parse_program_text("block a\n  1: Const \"1\"\n"), Error);
  EXPECT_THROW(parse_program_text("  1: Const \"1\"\n  ret\n"), Error);
  EXPECT_THROW(parse_program_text("block a\n  ret\n  2: Const \"1\"\n"),
               Error);
  EXPECT_THROW(parse_program_text(""), Error);
}

TEST(ProgramText, OutOfRangeLiteralRaisesError) {
  EXPECT_THROW(parse_program_text("program\n"
                                  "block entry\n"
                                  "  1: Const \"99999999999999999999999\"\n"
                                  "  2: Store #s, 1\n"
                                  "  ret\n"),
               Error);
}

TEST(ProgramCompiler, OptimizationPreservesProgramSemantics) {
  const char* source =
      "acc = 0;\n"
      "if (a - b) { acc = a * b + 3 * 1; } else { acc = a + b + 0; }\n"
      "while (k) { acc = acc + a; k = k - 1; }\n"
      "out = acc * 2;\n";
  const Program prog = generate_program(parse_source(source));
  const Program optimized = optimize_program(prog);
  Rng rng(55);
  for (int trial = 0; trial < 20; ++trial) {
    ProgramEnv env;
    env["a"] = rng.next_in(-9, 9);
    env["b"] = rng.next_in(-9, 9);
    env["k"] = rng.next_in(0, 6);
    const auto base = interpret_program(prog, env);
    const auto opt = interpret_program(optimized, env);
    ASSERT_TRUE(base.terminated);
    EXPECT_EQ(base.final_vars.at("out"), opt.final_vars.at("out"));
    EXPECT_EQ(base.final_vars.at("acc"), opt.final_vars.at("acc"));
  }
}

TEST(ProgramCompiler, EmitsLabelsAndBranches) {
  ProgramCompileOptions options;
  options.block.search.curtail_lambda = 10000;
  const ProgramCompileResult result = compile_program_source(
      "if (a) { x = a * a; } else { x = a + a; }\n"
      "y = x;\n",
      options);
  EXPECT_EQ(result.blocks.size(), 4u);
  EXPECT_NE(result.assembly.find("beqz .c0"), std::string::npos);
  EXPECT_NE(result.assembly.find("j    "), std::string::npos);
  EXPECT_NE(result.assembly.find("ret"), std::string::npos);
  EXPECT_NE(result.assembly.find("b0:"), std::string::npos);
  EXPECT_GT(result.total_instructions, 0);
}

TEST(ProgramCompiler, ChainingNeverAddsNops) {
  // Chained boundaries can only reuse or equal the drained schedule's
  // quality on each chainable block... globally, chaining constrains
  // entry state, so per-program total NOPs may go either way in theory;
  // in practice for straight-line fallthrough chains the chained total
  // must be <= drained total + 0 (the chained scheduler sees strictly
  // more constraints but the program executes the same instructions).
  // We assert the well-defined property: both compile successfully and
  // the chained run marks at least one block as chained for a program
  // with a straight-line split.
  const char* source =
      "t0 = c0 * x0;\n"
      "t1 = c1 * x1;\n"
      "if (sel) { y = t0; } else { y = t1; }\n"
      "z = y * y;\n";
  ProgramCompileOptions drain;
  drain.boundary = BoundaryMode::Drain;
  ProgramCompileOptions chain;
  chain.boundary = BoundaryMode::Chain;
  const auto a = compile_program_source(source, drain);
  const auto b = compile_program_source(source, chain);
  EXPECT_EQ(a.blocks.size(), b.blocks.size());
  bool any_chained = false;
  for (const CompiledBlock& cb : b.blocks) any_chained |= cb.chained;
  EXPECT_TRUE(any_chained);
  for (const CompiledBlock& cb : a.blocks) EXPECT_FALSE(cb.chained);
}

TEST(ProgramCompiler, ChainedEntryStateDelaysConflictingOps) {
  // Two-block fall-through program on the non-pipelined-units machine
  // (multiplier enqueue == latency == 5). Block 0 ends with a Mul issued
  // at its final cycle; block 1's first real work is another Mul. With
  // Chain, the entering Mul must wait out the occupied multiplier; with
  // Drain the analysis wrongly assumes an empty unit.
  Program prog;
  {
    const BlockId b0 = prog.add_block("first");
    BasicBlock& blk = prog.block_mut(b0).block;
    const VarId a = blk.var_id("a");
    const TupleIndex load = blk.append(Opcode::Load, Operand::of_var(a));
    blk.append(Opcode::Mul, Operand::of_ref(load), Operand::of_ref(load));
    prog.block_mut(b0).term = Terminator::fall_through();
  }
  {
    const BlockId b1 = prog.add_block("second");
    BasicBlock& blk = prog.block_mut(b1).block;
    const TupleIndex c = blk.append(Opcode::Const, Operand::of_imm(3));
    const TupleIndex mul =
        blk.append(Opcode::Mul, Operand::of_ref(c), Operand::of_ref(c));
    blk.append(Opcode::Store, Operand::of_var(blk.var_id("n")),
               Operand::of_ref(mul));
    prog.block_mut(b1).term = Terminator::ret();
  }

  ProgramCompileOptions options;
  options.block.machine = Machine::unpipelined_units();
  options.block.optimize = false;
  options.boundary = BoundaryMode::Chain;
  const ProgramCompileResult chained = compile_program(prog, options);
  ASSERT_TRUE(chained.blocks[1].chained);

  options.boundary = BoundaryMode::Drain;
  const ProgramCompileResult drained = compile_program(prog, options);
  // The chained schedule pays for the in-flight multiply; the drained one
  // pretends the unit is free (cheaper on paper, wrong on the machine).
  EXPECT_GT(chained.blocks[1].schedule.total_nops(),
            drained.blocks[1].schedule.total_nops());
}

TEST(ProgramCompiler, HonoursReassociationLikeCompileBlock) {
  // Every block goes through compile_block, so reassociation reshapes a
  // loop body's Add/Mul chains exactly as it does on its own.
  const Program prog = generate_program(parse_source(
      "acc = 0;\n"
      "while (n) {\n"
      "  t = a + b + c + d + e + f;\n"
      "  acc = acc * t * g * h * i;\n"
      "  n = n - 1;\n"
      "}\n"
      "out = acc;\n"));
  ProgramCompileOptions options;
  options.block.search.curtail_lambda = 2000;
  options.block.reassociate = true;
  const ProgramCompileResult result = compile_program(prog, options);
  ASSERT_EQ(result.blocks.size(), prog.size());

  CompileOptions plain = options.block;
  plain.reassociate = false;
  bool reshaped = false;
  for (std::size_t i = 0; i < prog.size(); ++i) {
    BasicBlock body = prog.block(static_cast<BlockId>(i)).block;
    body.set_label("");
    BasicBlock compiled = result.blocks[i].optimized;
    compiled.set_label("");
    EXPECT_EQ(compiled.to_string(),
              compile_block(body, options.block).block.to_string())
        << "block " << i;
    reshaped |= compiled.to_string() !=
                compile_block(body, plain).block.to_string();
  }
  EXPECT_TRUE(reshaped);
}

}  // namespace
}  // namespace pipesched
