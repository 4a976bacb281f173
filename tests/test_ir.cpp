// Unit tests for the tuple IR: opcodes, block construction, validation,
// the Figure 3 text notation, and the reference interpreter.
#include <gtest/gtest.h>

#include <limits>

#include "ir/block.hpp"
#include "ir/block_parser.hpp"
#include "ir/interp.hpp"
#include "util/check.hpp"

namespace pipesched {
namespace {

TEST(Opcode, TraitsMatchTaxonomy) {
  EXPECT_EQ(opcode_arity(Opcode::Const), 1);
  EXPECT_EQ(opcode_arity(Opcode::Store), 2);
  EXPECT_EQ(opcode_arity(Opcode::Neg), 1);
  EXPECT_EQ(opcode_arity(Opcode::Add), 2);
  EXPECT_FALSE(opcode_has_result(Opcode::Store));
  EXPECT_TRUE(opcode_has_result(Opcode::Load));
  EXPECT_TRUE(opcode_is_commutative(Opcode::Add));
  EXPECT_TRUE(opcode_is_commutative(Opcode::Mul));
  EXPECT_FALSE(opcode_is_commutative(Opcode::Sub));
  EXPECT_FALSE(opcode_is_commutative(Opcode::Div));
  EXPECT_TRUE(opcode_is_binary_arith(Opcode::Div));
  EXPECT_FALSE(opcode_is_binary_arith(Opcode::Load));
}

TEST(Opcode, NameRoundTrip) {
  for (int i = 0; i < kOpcodeCount; ++i) {
    const auto op = static_cast<Opcode>(i);
    const auto parsed = opcode_from_name(opcode_name(op));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, op);
  }
  EXPECT_FALSE(opcode_from_name("Bogus").has_value());
}

TEST(Block, VariableInterningIsStable) {
  BasicBlock block;
  const VarId a = block.var_id("a");
  const VarId b = block.var_id("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(block.var_id("a"), a);
  EXPECT_EQ(block.var_name(a), "a");
  EXPECT_EQ(block.find_var("b"), b);
  EXPECT_EQ(block.find_var("zz"), -1);
  EXPECT_EQ(block.var_count(), 2u);
}

TEST(Block, ValidationRejectsForwardReferences) {
  BasicBlock block;
  Tuple t;
  t.op = Opcode::Neg;
  t.a = Operand::of_ref(0);  // references itself (index 0 == its own slot)
  EXPECT_THROW(block.append(t), Error);
}

TEST(Block, ValidationRejectsReferencesToValuelessTuples) {
  BasicBlock block;
  const VarId v = block.var_id("v");
  const TupleIndex c = block.append(Opcode::Const, Operand::of_imm(1));
  const TupleIndex st =
      block.append(Opcode::Store, Operand::of_var(v), Operand::of_ref(c));
  Tuple bad;
  bad.op = Opcode::Neg;
  bad.a = Operand::of_ref(st);  // Store has no result
  EXPECT_THROW(block.append(bad), Error);
}

TEST(Block, ValidationEnforcesOperandKinds) {
  BasicBlock block;
  EXPECT_THROW(block.append(Opcode::Const, Operand::of_var(0)), Error);
  EXPECT_THROW(block.append(Opcode::Load, Operand::of_imm(3)), Error);
  const VarId v = block.var_id("v");
  EXPECT_THROW(
      block.append(Opcode::Store, Operand::of_var(v), Operand::of_var(v)),
      Error);
}

// The exact block of the paper's Figure 3.
const char* kFigure3 =
    "1: Const \"15\"\n"
    "2: Store #b, 1\n"
    "3: Load #a\n"
    "4: Mul 1, 3\n"
    "5: Store #a, 4\n";

TEST(BlockParser, ParsesFigure3) {
  const BasicBlock block = parse_block(kFigure3);
  ASSERT_EQ(block.size(), 5u);
  EXPECT_EQ(block.tuple(0).op, Opcode::Const);
  EXPECT_EQ(block.tuple(0).a.imm, 15);
  EXPECT_EQ(block.tuple(1).op, Opcode::Store);
  EXPECT_EQ(block.var_name(block.tuple(1).a.var), "b");
  EXPECT_EQ(block.tuple(3).op, Opcode::Mul);
  EXPECT_EQ(block.tuple(3).a.ref, 0);
  EXPECT_EQ(block.tuple(3).b.ref, 2);
}

TEST(BlockParser, RoundTripsThroughToString) {
  const BasicBlock block = parse_block(kFigure3);
  const BasicBlock again = parse_block(block.to_string());
  ASSERT_EQ(again.size(), block.size());
  for (std::size_t i = 0; i < block.size(); ++i) {
    EXPECT_EQ(again.tuple(static_cast<TupleIndex>(i)),
              block.tuple(static_cast<TupleIndex>(i)));
  }
}

TEST(BlockParser, AcceptsCommentsAndLabels) {
  const BasicBlock block = parse_block(
      "entry:\n"
      "1: Const \"3\"   ; the constant three\n"
      "\n"
      "2: Store #x, 1\n");
  EXPECT_EQ(block.label(), "entry");
  EXPECT_EQ(block.size(), 2u);
}

TEST(BlockParser, RejectsMisnumberedTuples) {
  EXPECT_THROW(parse_block("2: Const \"1\"\n"), Error);
  EXPECT_THROW(parse_block("1: Const \"1\"\n3: Const \"2\"\n"), Error);
}

TEST(BlockParser, RejectsOutOfRangeIntegersNamingTheLine) {
  for (const std::string text :
       {"1: Load #a\n2: Const \"99999999999999999999999\"\n",
        "1: Load #a\n2: Add 1, 99999999999\n",
        "1: Load #a\n99999999999999999999: Load #b\n"}) {
    try {
      parse_block(text);
      ADD_FAILURE() << "expected Error for " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
  // The int64 extremes still parse as immediates.
  const BasicBlock block = parse_block(
      "1: Const \"-9223372036854775808\"\n"
      "2: Const \"+9223372036854775807\"\n");
  EXPECT_EQ(block.tuple(0).a.imm, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(block.tuple(1).a.imm, std::numeric_limits<std::int64_t>::max());
}

TEST(BlockParser, RejectsUnknownOpcodeAndTrailingGarbage) {
  EXPECT_THROW(parse_block("1: Frob #x\n"), Error);
  EXPECT_THROW(parse_block("1: Const \"1\" extra\n"), Error);
}

TEST(Interp, Figure3Semantics) {
  // { b = 15; a = b * a; } with a initially 4: a' = 60, b' = 15.
  const BasicBlock block = parse_block(kFigure3);
  VarEnv initial;
  initial[block.find_var("a")] = 4;
  const ExecResult result = interpret(block, initial);
  EXPECT_EQ(result.final_vars.at(block.find_var("a")), 60);
  EXPECT_EQ(result.final_vars.at(block.find_var("b")), 15);
}

TEST(Interp, DivisionByZeroYieldsZero) {
  const BasicBlock block = parse_block(
      "1: Const \"5\"\n"
      "2: Const \"0\"\n"
      "3: Div 1, 2\n"
      "4: Store #q, 3\n");
  const ExecResult result = interpret(block);
  EXPECT_EQ(result.final_vars.at(block.find_var("q")), 0);
}

TEST(Interp, LegalReorderingPreservesSemantics) {
  const BasicBlock block = parse_block(kFigure3);
  VarEnv initial;
  initial[block.find_var("a")] = 7;
  const ExecResult base = interpret(block, initial);
  // Legal alternative order: Load a first, then Const, stores in dep order.
  const ExecResult reordered =
      interpret_in_order(block, initial, {2, 0, 1, 3, 4});
  EXPECT_EQ(base.final_vars, reordered.final_vars);
}

TEST(Interp, RejectsNonPermutationOrders) {
  const BasicBlock block = parse_block(kFigure3);
  EXPECT_THROW(interpret_in_order(block, {}, {0, 1, 2, 3}), Error);
  EXPECT_THROW(interpret_in_order(block, {}, {0, 0, 1, 2, 3}), Error);
}

TEST(Interp, EvalOpWrapsLikeHardware) {
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(eval_op(Opcode::Add, max, 1),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(eval_op(Opcode::Sub, 0, 1), -1);
  EXPECT_EQ(eval_op(Opcode::Neg, std::numeric_limits<std::int64_t>::min(), 0),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(eval_op(Opcode::Div, std::numeric_limits<std::int64_t>::min(), -1),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(eval_op(Opcode::Mul, 1ll << 62, 4), 0);
}

}  // namespace
}  // namespace pipesched
