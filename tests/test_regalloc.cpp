// Tests for liveness, linear-scan allocation (Section 3.4: allocation
// happens after scheduling) and the false-dependence injection used by the
// pre-allocation ablation.
#include <gtest/gtest.h>

#include <algorithm>

#include "ir/block_parser.hpp"
#include "ir/dag.hpp"
#include "regalloc/regalloc.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/optimal_scheduler.hpp"
#include "synth/generator.hpp"

namespace pipesched {
namespace {

std::vector<TupleIndex> identity_order(std::size_t n) {
  std::vector<TupleIndex> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<TupleIndex>(i);
  return order;
}

TEST(Liveness, RangesSpanDefToLastUse) {
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Load #b\n"
      "3: Add 1, 2\n"
      "4: Mul 3, 1\n"
      "5: Store #a, 4\n");
  const auto ranges = compute_live_ranges(block, identity_order(5));
  ASSERT_EQ(ranges.size(), 4u);  // Store produces no value
  // Load a (tuple 1) is used by Add (pos 2) and Mul (pos 3).
  EXPECT_EQ(ranges[0].tuple, 0);
  EXPECT_EQ(ranges[0].def_pos, 0);
  EXPECT_EQ(ranges[0].last_use_pos, 3);
  // Add's value dies at Mul.
  EXPECT_EQ(ranges[2].tuple, 2);
  EXPECT_EQ(ranges[2].last_use_pos, 3);
  // At the Add (pos 2): a, b and the Add's own result are live.
  EXPECT_EQ(max_live(ranges), 3);
}

TEST(Liveness, UnusedResultHasPointRange) {
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Load #b\n"
      "3: Store #c, 2\n");
  const auto ranges = compute_live_ranges(block, identity_order(3));
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_EQ(ranges[0].last_use_pos, ranges[0].def_pos);
}

TEST(LinearScan, UsesMinimumRegistersOnChain) {
  // A pure chain never needs more than 2 registers.
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Neg 1\n"
      "3: Neg 2\n"
      "4: Neg 3\n"
      "5: Store #a, 4\n");
  const Allocation alloc = linear_scan(block, identity_order(5), 32);
  EXPECT_LE(alloc.registers_used, 2);
  EXPECT_TRUE(verify_allocation(block, identity_order(5), alloc));
}

TEST(LinearScan, ThrowsWhenSpillWouldBeNeeded) {
  // Three loads live across the first Add, whose own result is live
  // concurrently with its operands (an instruction's output register may
  // not alias an input — the allocator's conservative boundary
  // convention): MAXLIVE is 4.
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Load #b\n"
      "3: Load #c\n"
      "4: Add 1, 2\n"
      "5: Add 4, 3\n"
      "6: Store #a, 5\n");
  const auto ranges = compute_live_ranges(block, identity_order(6));
  EXPECT_EQ(max_live(ranges), 4);
  EXPECT_THROW(linear_scan(block, identity_order(6), 3), Error);
  EXPECT_NO_THROW(linear_scan(block, identity_order(6), 4));
}

TEST(LinearScan, RegistersNeverExceedMaxLive) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    GeneratorParams params;
    params.statements = 10;
    params.variables = 5;
    params.constants = 3;
    params.seed = seed;
    const BasicBlock block = generate_block(params);
    if (block.empty()) continue;
    const DepGraph dag(block);
    const std::vector<TupleIndex> order = list_schedule_order(dag);
    const auto ranges = compute_live_ranges(block, order);
    const Allocation alloc = linear_scan(block, order, 64);
    EXPECT_LE(alloc.registers_used, max_live(ranges)) << seed;
    EXPECT_TRUE(verify_allocation(block, order, alloc)) << seed;
  }
}

TEST(LinearScan, WorksOnScheduledOrderNotOriginal) {
  GeneratorParams params;
  params.statements = 8;
  params.variables = 4;
  params.constants = 2;
  params.seed = 21;
  const BasicBlock block = generate_block(params);
  const DepGraph dag(block);
  SearchConfig config;
  config.curtail_lambda = 10000;
  const Schedule s =
      optimal_schedule(Machine::paper_simulation(), dag, config).schedule;
  const Allocation alloc = linear_scan(block, s.order, 64);
  EXPECT_TRUE(verify_allocation(block, s.order, alloc));
}

TEST(LinearScan, RoundRobinCyclesTheFile) {
  // Two short-lived values: LowestFree reuses r0, RoundRobin moves on.
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Store #x, 1\n"
      "3: Load #b\n"
      "4: Store #y, 3\n");
  const auto order = identity_order(4);
  const Allocation lowest =
      linear_scan(block, order, 4, AllocPolicy::LowestFree);
  EXPECT_EQ(lowest.reg_of[0], lowest.reg_of[2]);  // r0 reused
  const Allocation rr = linear_scan(block, order, 4, AllocPolicy::RoundRobin);
  EXPECT_NE(rr.reg_of[0], rr.reg_of[2]);  // file cycles before reuse
  EXPECT_TRUE(verify_allocation(block, order, rr));
}

TEST(LinearScan, RoundRobinStillRespectsOverlap) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    GeneratorParams params;
    params.statements = 9;
    params.variables = 5;
    params.constants = 2;
    params.seed = seed + 400;
    const BasicBlock block = generate_block(params);
    if (block.empty()) continue;
    const DepGraph dag(block);
    const auto order = list_schedule_order(dag);
    const Allocation alloc =
        linear_scan(block, order, 64, AllocPolicy::RoundRobin);
    EXPECT_TRUE(verify_allocation(block, order, alloc)) << seed;
  }
}

TEST(FalseDeps, RegisterReuseInducesAntiEdges) {
  // With 1 register, value lifetimes must be strictly nested in original
  // order: every later def gets an anti edge from the earlier def's users.
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Store #x, 1\n"
      "3: Load #b\n"
      "4: Store #y, 3\n");
  const Allocation alloc = linear_scan(block, identity_order(4), 1);
  EXPECT_EQ(alloc.registers_used, 1);
  const auto edges = false_dependence_edges(block, alloc);
  // Load b reuses Load a's register: edges Load a -> Load b and
  // Store x -> Load b.
  EXPECT_NE(std::find(edges.begin(), edges.end(),
                      std::make_pair(TupleIndex{0}, TupleIndex{2})),
            edges.end());
  EXPECT_NE(std::find(edges.begin(), edges.end(),
                      std::make_pair(TupleIndex{1}, TupleIndex{2})),
            edges.end());
}

TEST(FalseDeps, ConstrainedDagNeverBeatsUnconstrained) {
  // The paper's motivating claim: scheduling before allocation can only
  // help. Property: optimal NOPs with injected false deps >= without.
  const Machine machine = Machine::risc_classic();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    GeneratorParams params;
    params.statements = 7;
    params.variables = 4;
    params.constants = 2;
    params.seed = seed * 7;
    const BasicBlock block = generate_block(params);
    if (block.empty()) continue;
    const DepGraph free_dag(block);
    const auto order = identity_order(block.size());
    const auto ranges = compute_live_ranges(block, order);
    const int tight_regs = std::max(1, max_live(ranges));
    const Allocation alloc = linear_scan(block, order, tight_regs);
    const DepGraph constrained(block,
                               false_dependence_edges(block, alloc));

    SearchConfig config;
    config.curtail_lambda = 50000;
    const int free_nops =
        optimal_schedule(machine, free_dag, config).schedule.total_nops();
    const int constrained_nops =
        optimal_schedule(machine, constrained, config).schedule.total_nops();
    EXPECT_GE(constrained_nops, free_nops) << seed;
  }
}

}  // namespace
}  // namespace pipesched
