// Tests for final code generation (Section 3.4) across the delay
// mechanisms of Section 2.2.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "asmout/emitter.hpp"
#include "ir/block_parser.hpp"
#include "ir/dag.hpp"
#include "regalloc/regalloc.hpp"
#include "sched/timing.hpp"

namespace pipesched {
namespace {

struct Prepared {
  BasicBlock block;
  Schedule schedule;
  Allocation allocation;
};

Prepared prepare(const char* text, const Machine& machine) {
  Prepared p{parse_block(text), {}, {}};
  const DepGraph dag(p.block);
  std::vector<TupleIndex> order(p.block.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<TupleIndex>(i);
  }
  p.schedule = evaluate_order(machine, dag, order);
  p.allocation = linear_scan(p.block, order, 32);
  return p;
}

const char* kBlock =
    "1: Load #a\n"
    "2: Mul 1, 1\n"
    "3: Mul 1, 1\n"
    "4: Add 2, 3\n"
    "5: Store #y, 4\n";

TEST(Emitter, NopPaddingEmitsEveryDelaySlot) {
  const Machine machine = Machine::paper_simulation();
  const Prepared p = prepare(kBlock, machine);
  EmitOptions options;
  options.comments = false;
  const std::string text =
      emit_assembly(p.block, machine, p.schedule, p.allocation, options);
  int nops = 0;
  std::size_t pos = 0;
  while ((pos = text.find("nop", pos)) != std::string::npos) {
    ++nops;
    ++pos;
  }
  EXPECT_EQ(nops, p.schedule.total_nops());
  EXPECT_NE(text.find("ld   r"), std::string::npos);
  EXPECT_NE(text.find("st   r"), std::string::npos);
}

TEST(Emitter, ImplicitInterlockEmitsNoDelays) {
  const Machine machine = Machine::paper_simulation();
  const Prepared p = prepare(kBlock, machine);
  EmitOptions options;
  options.mechanism = DelayMechanism::ImplicitInterlock;
  options.comments = false;
  const std::string text =
      emit_assembly(p.block, machine, p.schedule, p.allocation, options);
  EXPECT_EQ(text.find("nop"), std::string::npos);
  EXPECT_EQ(text.find("wait="), std::string::npos);
}

TEST(Emitter, ExplicitInterlockCarriesStallCycles) {
  const Machine machine = Machine::paper_simulation();
  const Prepared p = prepare(kBlock, machine);
  EmitOptions options;
  options.mechanism = DelayMechanism::ExplicitInterlock;
  options.comments = false;
  const std::string text =
      emit_assembly(p.block, machine, p.schedule, p.allocation, options);
  // Every instruction line carries a wait= field; total equals mu.
  int total = 0;
  std::size_t pos = 0;
  while ((pos = text.find("wait=", pos)) != std::string::npos) {
    total += std::stoi(text.substr(pos + 5));
    ++pos;
  }
  EXPECT_EQ(total, p.schedule.total_nops());
}

TEST(Emitter, TeraCountsPointAtConstrainingInstructions) {
  const Machine machine = Machine::paper_simulation();
  const Prepared p = prepare(kBlock, machine);
  const std::vector<int> counts =
      tera_sync_counts(p.block, machine, p.schedule);
  ASSERT_EQ(counts.size(), 5u);
  EXPECT_EQ(counts[0], 0);  // Load: unconstrained
  EXPECT_EQ(counts[1], 1);  // Mul depends on Load, 1 back
  // Second Mul: depends on Load (2 back) and conflicts with Mul (1 back).
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);  // Add depends on both Muls; nearest 1 back
  EXPECT_EQ(counts[4], 1);  // Store depends on Add
}

TEST(Emitter, CarpMasksFlagBindingUnits) {
  const Machine machine = Machine::paper_simulation();
  const Prepared p = prepare(kBlock, machine);
  const std::vector<unsigned> masks =
      carp_wait_masks(p.block, machine, p.schedule);
  ASSERT_EQ(masks.size(), 5u);
  // Unit ids on the paper machine: loader = 0, multiplier = 1.
  EXPECT_EQ(masks[0], 0u);        // Load: nothing in flight
  EXPECT_EQ(masks[1], 1u << 0);   // Mul waits on the loader's result
  EXPECT_EQ(masks[2], 1u << 1);   // second Mul: multiplier enqueue window
  EXPECT_EQ(masks[3], 1u << 1);   // Add waits on the multiplier's result
  EXPECT_EQ(masks[4], 0u);        // Store: Add is sigma-empty, no wait
}

TEST(Emitter, MechanismsAgreeOnInstructionText) {
  const Machine machine = Machine::paper_simulation();
  const Prepared p = prepare(kBlock, machine);
  EmitOptions a;
  a.mechanism = DelayMechanism::TeraCount;
  a.comments = false;
  EmitOptions b;
  b.mechanism = DelayMechanism::CarpMask;
  b.comments = false;
  const std::string ta =
      emit_assembly(p.block, machine, p.schedule, p.allocation, a);
  const std::string tb =
      emit_assembly(p.block, machine, p.schedule, p.allocation, b);
  EXPECT_NE(ta.find("sync="), std::string::npos);
  EXPECT_NE(tb.find("mask="), std::string::npos);
  // Same number of lines: one per instruction, no padding in either.
  EXPECT_EQ(std::count(ta.begin(), ta.end(), '\n'),
            std::count(tb.begin(), tb.end(), '\n'));
}

TEST(Emitter, CommentsShowIssueCyclesAndUnits) {
  const Machine machine = Machine::paper_simulation();
  const Prepared p = prepare(kBlock, machine);
  EmitOptions options;
  const std::string text =
      emit_assembly(p.block, machine, p.schedule, p.allocation, options);
  EXPECT_NE(text.find("; cycle 1"), std::string::npos);
  EXPECT_NE(text.find("loader"), std::string::npos);
  EXPECT_NE(text.find("multiplier"), std::string::npos);
}

// Lines longer than the comment column keep every character: the comment
// follows after one space instead of cutting the operands or the delay
// annotation off.
TEST(Emitter, CommentsNeverCutLongLines) {
  const Machine machine = Machine::paper_simulation();
  const Prepared p = prepare(
      "1: Const \"1126107852194438\"\n"
      "2: Load #thirty_character_variable_name\n"
      "3: Add 1, 2\n"
      "4: Store #thirty_character_variable_name, 3\n",
      machine);
  for (const DelayMechanism mechanism :
       {DelayMechanism::NopPadding, DelayMechanism::ImplicitInterlock,
        DelayMechanism::ExplicitInterlock, DelayMechanism::TeraCount,
        DelayMechanism::CarpMask}) {
    SCOPED_TRACE(static_cast<int>(mechanism));
    EmitOptions options;
    options.mechanism = mechanism;
    options.comments = false;
    const std::string bare =
        emit_assembly(p.block, machine, p.schedule, p.allocation, options);
    options.comments = true;
    const std::string annotated =
        emit_assembly(p.block, machine, p.schedule, p.allocation, options);
    EXPECT_NE(bare.find(", thirty_character_variable_name",
                        bare.find("    st   ")),
              std::string::npos);
    EXPECT_NE(bare.find(", #1126107852194438"), std::string::npos);

    // Each annotated line is its bare line, padded to column 36 or
    // followed by one space, then the comment.
    std::istringstream bare_lines(bare);
    std::istringstream annotated_lines(annotated);
    std::string want;
    std::string got;
    while (std::getline(bare_lines, want)) {
      ASSERT_TRUE(std::getline(annotated_lines, got));
      if (want == "    nop") {
        EXPECT_EQ(got, want);
        continue;
      }
      const std::size_t column = std::max<std::size_t>(36, want.size() + 1);
      ASSERT_GT(got.size(), column);
      EXPECT_EQ(got.substr(0, want.size()), want);
      EXPECT_EQ(got.find_first_not_of(' ', want.size()), column);
      EXPECT_EQ(got.compare(column, 8, "; cycle "), 0) << got;
    }
    EXPECT_FALSE(std::getline(annotated_lines, got));
  }
}

}  // namespace
}  // namespace pipesched
