// Tests for the mini language front end: parser, AST, and the Section 5.2
// load/store code-generation rules.
#include <gtest/gtest.h>

#include <string>

#include "frontend/codegen.hpp"
#include "frontend/parser.hpp"
#include "frontend/program_codegen.hpp"
#include "ir/interp.hpp"
#include "util/check.hpp"

namespace pipesched {
namespace {

TEST(SourceParser, ParsesFigure3Program) {
  const SourceProgram prog = parse_source("{ b = 15; a = b * a; }");
  ASSERT_EQ(prog.statements.size(), 2u);
  EXPECT_EQ(prog.name(prog.statements[0].target), "b");
  EXPECT_EQ(prog.expr(prog.statements[0].value).kind, Expr::Kind::Number);
  EXPECT_EQ(prog.name(prog.statements[1].target), "a");
  EXPECT_EQ(prog.expr(prog.statements[1].value).kind, Expr::Kind::Mul);
  // One node per leaf and operator, one name per identifier.
  EXPECT_EQ(prog.exprs.size(), 4u);
  EXPECT_EQ(prog.names.size(), 2u);
}

TEST(SourceParser, PrecedenceAndParentheses) {
  const SourceProgram prog = parse_source("x = a + b * c; y = (a + b) * c;");
  const Expr& sum = prog.expr(prog.statements[0].value);
  EXPECT_EQ(sum.kind, Expr::Kind::Add);
  EXPECT_EQ(prog.expr(sum.rhs).kind, Expr::Kind::Mul);
  const Expr& prod = prog.expr(prog.statements[1].value);
  EXPECT_EQ(prod.kind, Expr::Kind::Mul);
  EXPECT_EQ(prog.expr(prod.lhs).kind, Expr::Kind::Add);
}

TEST(SourceParser, UnaryMinusAndComments) {
  const SourceProgram prog = parse_source(
      "// negate a\n"
      "x = -a; y = --a;\n");
  EXPECT_EQ(prog.expr(prog.statements[0].value).kind, Expr::Kind::Negate);
  const Expr& twice = prog.expr(prog.statements[1].value);
  EXPECT_EQ(twice.kind, Expr::Kind::Negate);
  EXPECT_EQ(prog.expr(twice.lhs).kind, Expr::Kind::Negate);
}

TEST(SourceParser, DiagnosesSyntaxErrors) {
  EXPECT_THROW(parse_source("x = ;"), Error);
  EXPECT_THROW(parse_source("x + 1;"), Error);
  EXPECT_THROW(parse_source("x = 1"), Error);
  EXPECT_THROW(parse_source("x = (1;"), Error);
  // At the end of input the message names it, not the NUL peek() holds.
  try {
    parse_source("x = 1");
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "line 1: expected ';', found end of input");
  }
}

std::string repeat(const std::string& s, int times) {
  std::string out;
  for (int i = 0; i < times; ++i) out += s;
  return out;
}

// Hostile nesting must end in Error, not in a stack overflow in the
// recursive-descent parser or, for the long chain, in codegen. The same
// shape at half the limit still compiles.

TEST(SourceParser, OutOfRangeLiteralRaisesErrorNamingTheLine) {
  try {
    parse_source("a = 1;\nx = 99999999999999999999;");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  // The largest int64 literal still parses.
  EXPECT_NO_THROW(parse_source("x = 9223372036854775807;"));
}

TEST(SourceParser, DeepParenthesesRaiseError) {
  EXPECT_THROW(parse_source("a = " + repeat("(", 20000) + "b" +
                            repeat(")", 20000) + ";"),
               Error);
  const int ok = kMaxSourceNesting / 2;
  EXPECT_EQ(generate_tuples(parse_source("a = " + repeat("(", ok) + "b" +
                                         repeat(")", ok) + ";"))
                .size(),
            2u);  // Load b, Store a
}

TEST(SourceParser, DeepUnaryMinusRaisesError) {
  EXPECT_THROW(parse_source("a = " + repeat("-", 20000) + "b;"), Error);
  const int ok = kMaxSourceNesting / 2;
  EXPECT_EQ(
      generate_tuples(parse_source("a = " + repeat("-", ok) + "b;")).size(),
      static_cast<std::size_t>(ok) + 2);
}

TEST(SourceParser, DeepWhileNestingRaisesError) {
  EXPECT_THROW(parse_source(repeat("while (x) { ", 20000) + "a = b;" +
                            repeat(" }", 20000)),
               Error);
  const int ok = kMaxSourceNesting / 2;
  const SourceProgram nested = parse_source(repeat("while (x) { ", ok) +
                                            "a = b;" + repeat(" }", ok));
  EXPECT_GT(generate_program(nested).size(), static_cast<std::size_t>(ok));
}

TEST(SourceParser, LongOperatorChainRaisesError) {
  // The parser reads a chain in a loop, but the tree it builds is as high
  // as the chain is long, and codegen recurses down that height.
  EXPECT_THROW(parse_source("a = b" + repeat(" + b", 100000) + ";"), Error);
  const int ok = kMaxSourceNesting / 2;
  EXPECT_EQ(
      generate_tuples(parse_source("a = b" + repeat(" + b", ok) + ";"))
          .size(),
      static_cast<std::size_t>(ok) + 2);
}

TEST(SourceParser, RoundTripsThroughToString) {
  const SourceProgram prog =
      parse_source("x = a + b * c; y = -(x) / 3; z = y - x;");
  const SourceProgram again = parse_source(prog.to_string());
  EXPECT_EQ(again.to_string(), prog.to_string());
}

TEST(Codegen, ReproducesFigure3Tuples) {
  // { b = 15; a = b * a; } must lower exactly to the paper's Figure 3.
  const BasicBlock block =
      generate_tuples(parse_source("{ b = 15; a = b * a; }"));
  ASSERT_EQ(block.size(), 5u);
  EXPECT_EQ(block.tuple(0).op, Opcode::Const);   // 1: Const "15"
  EXPECT_EQ(block.tuple(0).a.imm, 15);
  EXPECT_EQ(block.tuple(1).op, Opcode::Store);   // 2: Store #b, 1
  EXPECT_EQ(block.var_name(block.tuple(1).a.var), "b");
  EXPECT_EQ(block.tuple(1).b.ref, 0);
  EXPECT_EQ(block.tuple(2).op, Opcode::Load);    // 3: Load #a
  EXPECT_EQ(block.var_name(block.tuple(2).a.var), "a");
  EXPECT_EQ(block.tuple(3).op, Opcode::Mul);     // 4: Mul 1, 3
  EXPECT_EQ(block.tuple(3).a.ref, 0);
  EXPECT_EQ(block.tuple(3).b.ref, 2);
  EXPECT_EQ(block.tuple(4).op, Opcode::Store);   // 5: Store #a, 4
  EXPECT_EQ(block.tuple(4).b.ref, 3);
}

TEST(Codegen, FirstReferenceLoadsOnlyOnce) {
  // 'a' is read three times but loaded once (Section 5.2's rule plus
  // current-value tracking).
  const BasicBlock block =
      generate_tuples(parse_source("x = a + a; y = a;"));
  int loads = 0;
  for (const Tuple& t : block.tuples()) loads += t.op == Opcode::Load;
  EXPECT_EQ(loads, 1);
}

TEST(Codegen, AssignmentForwardsWithoutReload) {
  // After 'a = b + c', reading 'a' reuses the Add result, not a Load.
  const BasicBlock block =
      generate_tuples(parse_source("a = b + c; d = a * 2;"));
  for (const Tuple& t : block.tuples()) {
    if (t.op == Opcode::Load) {
      EXPECT_NE(block.var_name(t.a.var), "a");
    }
  }
}

TEST(Codegen, EveryAssignmentStores) {
  const BasicBlock block =
      generate_tuples(parse_source("a = 1; a = 2; a = 3;"));
  int stores = 0;
  for (const Tuple& t : block.tuples()) stores += t.op == Opcode::Store;
  EXPECT_EQ(stores, 3);
}

TEST(Codegen, GeneratedCodeComputesTheProgram) {
  // End-to-end semantics: run the tuple code and check the math.
  // x = (a+b)*(a-b); y = x/2 - a;   with a=9, b=5:
  //   x = 14*4 = 56; y = 28-9 = 19.
  const BasicBlock block = generate_tuples(
      parse_source("x = (a + b) * (a - b); y = x / 2 - a;"));
  VarEnv initial;
  initial[block.find_var("a")] = 9;
  initial[block.find_var("b")] = 5;
  const ExecResult result = interpret(block, initial);
  EXPECT_EQ(result.final_vars.at(block.find_var("x")), 56);
  EXPECT_EQ(result.final_vars.at(block.find_var("y")), 19);
}

}  // namespace
}  // namespace pipesched
