// Tests for liveness, linear-scan allocation (Section 3.4: allocation
// happens after scheduling) and the false-dependence injection used by the
// pre-allocation ablation.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <string>

#include "ir/block_parser.hpp"
#include "ir/dag.hpp"
#include "regalloc/regalloc.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/optimal_scheduler.hpp"
#include "synth/generator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

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

// ---- Reference oracle ------------------------------------------------
//
// The allocator as it stood before the pool and the release buckets: live
// ranges sorted by def position, MAXLIVE from a std::map sweep, a deque
// of free registers (re-sorted before every def under LowestFree, a FIFO
// under RoundRobin) and the active ranges in a multimap keyed by last use.

std::vector<LiveRange> reference_live_ranges(
    const BasicBlock& block, const std::vector<TupleIndex>& order) {
  std::vector<int> pos_of(block.size(), -1);
  for (std::size_t p = 0; p < order.size(); ++p) {
    pos_of[static_cast<std::size_t>(order[p])] = static_cast<int>(p);
  }
  std::vector<LiveRange> ranges;
  for (std::size_t i = 0; i < block.size(); ++i) {
    const auto index = static_cast<TupleIndex>(i);
    if (!opcode_has_result(block.tuple(index).op)) continue;
    ranges.push_back({index, pos_of[i], pos_of[i]});
  }
  for (LiveRange& r : ranges) {
    for (std::size_t i = 0; i < block.size(); ++i) {
      const Tuple& t = block.tuple(static_cast<TupleIndex>(i));
      if ((t.a.is_ref() && t.a.ref == r.tuple) ||
          (t.b.is_ref() && t.b.ref == r.tuple)) {
        r.last_use_pos = std::max(r.last_use_pos, pos_of[i]);
      }
    }
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const LiveRange& a, const LiveRange& b) {
              return a.def_pos < b.def_pos;
            });
  return ranges;
}

int reference_max_live(const std::vector<LiveRange>& ranges) {
  std::map<int, int> delta;
  for (const LiveRange& r : ranges) {
    delta[r.def_pos] += 1;
    delta[r.last_use_pos + 1] -= 1;
  }
  int live = 0;
  int best = 0;
  for (const auto& [pos, d] : delta) {
    live += d;
    best = std::max(best, live);
  }
  return best;
}

/// The reference allocation, or nullopt where the block needs spill code.
std::optional<Allocation> reference_linear_scan(
    const BasicBlock& block, const std::vector<TupleIndex>& order,
    int num_registers, AllocPolicy policy) {
  Allocation allocation;
  allocation.reg_of.assign(block.size(), -1);
  std::deque<int> free_regs;
  for (int r = 0; r < num_registers; ++r) free_regs.push_back(r);
  std::multimap<int, int> active;  // last_use_pos -> register
  int highest_used = -1;
  for (const LiveRange& range : reference_live_ranges(block, order)) {
    while (!active.empty() && active.begin()->first < range.def_pos) {
      free_regs.push_back(active.begin()->second);
      active.erase(active.begin());
    }
    if (policy == AllocPolicy::LowestFree) {
      std::sort(free_regs.begin(), free_regs.end());
    }
    if (free_regs.empty()) return std::nullopt;
    const int reg = free_regs.front();
    free_regs.pop_front();
    allocation.reg_of[static_cast<std::size_t>(range.tuple)] = reg;
    highest_used = std::max(highest_used, reg);
    active.emplace(range.last_use_pos, reg);
  }
  allocation.registers_used = highest_used + 1;
  return allocation;
}

/// A uniformly random ready tuple at every step: a random legal order.
std::vector<TupleIndex> random_legal_order(const DepGraph& dag, Rng& rng) {
  std::vector<int> unplaced_preds(dag.size());
  std::vector<TupleIndex> ready;
  for (std::size_t i = 0; i < dag.size(); ++i) {
    unplaced_preds[i] =
        static_cast<int>(dag.preds(static_cast<TupleIndex>(i)).size());
    if (unplaced_preds[i] == 0) ready.push_back(static_cast<TupleIndex>(i));
  }
  std::vector<TupleIndex> order;
  while (!ready.empty()) {
    const std::size_t k = rng.next_below(ready.size());
    const TupleIndex t = ready[k];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(k));
    order.push_back(t);
    for (TupleIndex s : dag.succs(t)) {
      if (--unplaced_preds[static_cast<std::size_t>(s)] == 0) {
        ready.push_back(s);
      }
    }
  }
  return order;
}

TEST(LinearScan, MatchesReferenceAllocator) {
  Rng rng(0x11ea5ca7);
  int spills = 0;
  for (int b = 0; b < 600; ++b) {
    GeneratorParams params;
    params.statements = 2 + static_cast<int>(rng.next_below(60));
    params.variables = 2 + static_cast<int>(rng.next_below(30));
    params.constants = 1 + static_cast<int>(rng.next_below(4));
    params.seed = rng.next_u64();
    const BasicBlock block = generate_block(params);
    const DepGraph dag(block);
    const std::vector<TupleIndex> order = random_legal_order(dag, rng);
    SCOPED_TRACE("block " + std::to_string(b));

    const std::vector<LiveRange> ranges = compute_live_ranges(block, order);
    const std::vector<LiveRange> expected = reference_live_ranges(block, order);
    ASSERT_EQ(ranges.size(), expected.size());
    for (std::size_t k = 0; k < ranges.size(); ++k) {
      EXPECT_EQ(ranges[k].tuple, expected[k].tuple);
      EXPECT_EQ(ranges[k].def_pos, expected[k].def_pos);
      EXPECT_EQ(ranges[k].last_use_pos, expected[k].last_use_pos);
    }
    EXPECT_EQ(max_live(ranges), reference_max_live(expected));

    for (const AllocPolicy policy :
         {AllocPolicy::LowestFree, AllocPolicy::RoundRobin}) {
      const int registers = 3 + static_cast<int>(rng.next_below(68));
      SCOPED_TRACE(std::to_string(registers) + " registers, policy " +
                   std::to_string(static_cast<int>(policy)));
      const std::optional<Allocation> want =
          reference_linear_scan(block, order, registers, policy);
      if (!want) {
        ++spills;
        EXPECT_THROW(linear_scan(block, order, registers, policy), Error);
        continue;
      }
      Allocation got;
      ASSERT_NO_THROW(got = linear_scan(block, order, registers, policy));
      EXPECT_EQ(got.reg_of, want->reg_of);
      EXPECT_EQ(got.registers_used, want->registers_used);
    }
    if (::testing::Test::HasFailure()) return;
  }
  // The spill-needed Error is part of the comparison.
  EXPECT_GT(spills, 20);
}

}  // namespace
}  // namespace pipesched
