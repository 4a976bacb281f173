// Tests for the incremental NOP-insertion engine (paper Section 4.2.2),
// anchored on the worked examples of Section 2.1.
#include <gtest/gtest.h>

#include "ir/block_parser.hpp"
#include "ir/dag.hpp"
#include "machine/machine.hpp"
#include "sched/timing.hpp"
#include "util/rng.hpp"

namespace pipesched {
namespace {

/// Machine of the Section 2.1 examples: a 4-tick loader whose MAR is held
/// for the first 2 ticks (enqueue 2), plus a 2-tick adder.
Machine section21_machine() {
  Machine m("section-2.1");
  m.add_pipeline("loader", 4, 2);
  m.add_pipeline("adder", 2, 1);
  m.map_op(Opcode::Load, "loader");
  m.map_op(Opcode::Add, "adder");
  m.validate();
  return m;
}

std::vector<TupleIndex> identity_order(std::size_t n) {
  std::vector<TupleIndex> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<TupleIndex>(i);
  return order;
}

// Section 2.1, dependence example: "Load R1,X; Add R0,R1" on a 4-tick
// loader forces a delay of 3 clock ticks between the two instructions.
TEST(Timing, DependenceDelayMatchesPaperExample) {
  const BasicBlock block = parse_block(
      "1: Load #x\n"
      "2: Load #r0\n"
      "3: Add 2, 1\n");
  const Machine m = section21_machine();
  const DepGraph dag(block);
  // Schedule only [Load x, Add] adjacent: place Load r0 first so the pair
  // under test is consecutive.
  const Schedule s = evaluate_order(m, dag, {1, 0, 2});
  // Load r0 at cycle 1; Load x at cycle 2 (1 NOP for the MAR conflict is
  // NOT needed here: enqueue 2 means cycle 3... verify below); Add waits
  // for Load x's 4-tick latency.
  EXPECT_EQ(s.nops[0], 0);
  EXPECT_EQ(s.nops[1], 1);  // MAR conflict: second load 2 ticks after first
  EXPECT_EQ(s.issue_cycle[1], 3);
  EXPECT_EQ(s.issue_cycle[2], 3 + 4);  // operand ready 4 ticks later
  EXPECT_EQ(s.nops[2], 3);             // the paper's 3-tick delay
}

// Section 2.1, conflict example: two Loads back-to-back with the MAR held
// 2 ticks need 1 delay slot between them.
TEST(Timing, ConflictDelayMatchesPaperExample) {
  const BasicBlock block = parse_block(
      "1: Load #x\n"
      "2: Load #y\n");
  const Machine m = section21_machine();
  const DepGraph dag(block);
  const Schedule s = evaluate_order(m, dag, identity_order(2));
  EXPECT_EQ(s.issue_cycle[0], 1);
  EXPECT_EQ(s.issue_cycle[1], 3);
  EXPECT_EQ(s.nops[1], 1);
  EXPECT_EQ(s.total_nops(), 1);
}

TEST(Timing, SigmaEmptyOpsNeverDelay) {
  // Const and Store use no pipeline on the paper machine: a chain of them
  // issues one per cycle with zero NOPs.
  const BasicBlock block = parse_block(
      "1: Const \"1\"\n"
      "2: Const \"2\"\n"
      "3: Store #a, 1\n"
      "4: Store #b, 2\n");
  const Machine m = Machine::paper_simulation();
  const DepGraph dag(block);
  const Schedule s = evaluate_order(m, dag, identity_order(4));
  EXPECT_EQ(s.total_nops(), 0);
  EXPECT_EQ(s.completion_cycle(), 4);
}

TEST(Timing, MultiplierLatencyOnPaperMachine) {
  // Figure 3's block on the Tables 4-5 machine.
  const BasicBlock block = parse_block(
      "1: Const \"15\"\n"
      "2: Store #b, 1\n"
      "3: Load #a\n"
      "4: Mul 1, 3\n"
      "5: Store #a, 4\n");
  const Machine m = Machine::paper_simulation();
  const DepGraph dag(block);
  const Schedule s = evaluate_order(m, dag, identity_order(5));
  // Load at cycle 3 (latency 2) -> Mul must wait until cycle 5: 1 NOP.
  // Mul latency 4 -> Store waits until cycle 9: 3 NOPs.
  EXPECT_EQ(s.issue_cycle[3], 5);
  EXPECT_EQ(s.nops[3], 1);
  EXPECT_EQ(s.issue_cycle[4], 9);
  EXPECT_EQ(s.nops[4], 3);
  EXPECT_EQ(s.total_nops(), 4);
}

TEST(Timing, EnqueueEqualsLatencyModelsUnpipelinedUnit) {
  // Two independent Muls on a non-pipelined multiplier (enqueue == latency
  // == 5) serialize completely.
  Machine m("unpipelined");
  m.add_pipeline("multiplier", 5, 5);
  m.map_op(Opcode::Mul, "multiplier");
  m.validate();
  const BasicBlock block = parse_block(
      "1: Const \"2\"\n"
      "2: Const \"3\"\n"
      "3: Mul 1, 2\n"
      "4: Mul 2, 1\n");
  const DepGraph dag(block);
  const Schedule s = evaluate_order(m, dag, identity_order(4));
  EXPECT_EQ(s.issue_cycle[3] - s.issue_cycle[2], 5);
  EXPECT_EQ(s.nops[3], 4);
}

TEST(Timing, TwoLoadersAbsorbTheConflict) {
  // On the Tables 2-3 machine (two loaders) back-to-back loads issue in
  // consecutive cycles using distinct units.
  const BasicBlock block = parse_block(
      "1: Load #x\n"
      "2: Load #y\n");
  const Machine m = Machine::paper_example();
  const DepGraph dag(block);
  const Schedule s = evaluate_order(m, dag, identity_order(2));
  EXPECT_EQ(s.total_nops(), 0);
  EXPECT_NE(s.unit[0], s.unit[1]);
}

TEST(Timing, PushPopRestoresStateExactly) {
  // Property: at every depth of a random placement walk, pop() restores
  // NOP totals and issue cycles bit-for-bit (checked via re-push).
  const Machine m = Machine::risc_classic();
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    BasicBlock block;
    const VarId a = block.var_id("a");
    const VarId b = block.var_id("b");
    const TupleIndex l1 = block.append(Opcode::Load, Operand::of_var(a));
    const TupleIndex l2 = block.append(Opcode::Load, Operand::of_var(b));
    const TupleIndex mul = block.append(Opcode::Mul, Operand::of_ref(l1),
                                        Operand::of_ref(l2));
    const TupleIndex add = block.append(Opcode::Add, Operand::of_ref(mul),
                                        Operand::of_ref(l1));
    block.append(Opcode::Store, Operand::of_var(a), Operand::of_ref(add));
    const DepGraph dag(block);

    PipelineTimer timer(m, dag);
    std::vector<TupleIndex> order = {l1, l2, mul, add,
                                     static_cast<TupleIndex>(4)};
    // Random prefix, then verify push/pop round trip at each extension.
    const std::size_t prefix = rng.next_below(order.size());
    for (std::size_t i = 0; i < prefix; ++i) timer.push(order[i]);
    const int nops_before = timer.total_nops();
    const int cycle_before = timer.last_issue_cycle();
    if (prefix < order.size()) {
      timer.push(order[prefix]);
      timer.pop();
    }
    EXPECT_EQ(timer.total_nops(), nops_before);
    EXPECT_EQ(timer.last_issue_cycle(), cycle_before);
    EXPECT_EQ(timer.depth(), prefix);
  }
}

TEST(Timing, IncrementalMatchesFromScratchAtEveryDepth) {
  // Property: the incremental timer agrees with a from-scratch evaluation
  // of every prefix.
  const Machine m = Machine::paper_simulation();
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Load #b\n"
      "3: Add 1, 2\n"
      "4: Mul 3, 1\n"
      "5: Sub 4, 2\n"
      "6: Store #a, 5\n");
  const DepGraph dag(block);
  PipelineTimer timer(m, dag);
  std::vector<TupleIndex> prefix;
  for (TupleIndex t : {0, 1, 2, 3, 4, 5}) {
    timer.push(t);
    prefix.push_back(t);
    PipelineTimer fresh(m, dag);
    for (TupleIndex p : prefix) fresh.push(p);
    EXPECT_EQ(timer.total_nops(), fresh.total_nops());
    EXPECT_EQ(timer.last_issue_cycle(), fresh.last_issue_cycle());
  }
}

TEST(Timing, InitialStateDelaysConflictingFirstInstruction) {
  // Residual multiplier occupancy at block entry (footnote 1): last issue
  // at relative cycle 0 with enqueue 2 pushes an entering Mul to cycle 2.
  const Machine m = Machine::paper_simulation();
  const BasicBlock block = parse_block(
      "1: Const \"3\"\n"
      "2: Mul 1, 1\n");
  const DepGraph dag(block);

  PipelineState state = PipelineState::drained(m);
  ASSERT_TRUE(state.is_drained());
  state.unit_last_issue[1] = 0;  // multiplier just issued at the boundary
  EXPECT_FALSE(state.is_drained());

  const Schedule chained = evaluate_order(m, dag, {0, 1}, state);
  const Schedule drained = evaluate_order(m, dag, {0, 1});
  EXPECT_EQ(drained.issue_cycle[1], 2);
  EXPECT_EQ(chained.issue_cycle[1], 2);  // the Const fills the gap: no NOP

  // Back-to-back multiplies make the residual occupancy bind.
  PipelineState hot = PipelineState::drained(m);
  hot.unit_last_issue[1] = 0;
  const BasicBlock mul_only = parse_block(
      "1: Const \"3\"\n"
      "2: Mul 1, 1\n"
      "3: Mul 1, 1\n");
  const DepGraph dag2(mul_only);
  const Schedule s = evaluate_order(m, dag2, {0, 1, 2}, hot);
  EXPECT_EQ(s.issue_cycle[1], 2);  // 0 + enqueue 2
  EXPECT_EQ(s.issue_cycle[2], 4);  // 2 + enqueue 2
}

TEST(Timing, IsDrainedThresholdDerivesFromIdleSentinel) {
  // Regression: is_drained() used to compare against a fixed -1000 while
  // the "never issued" sentinel is PipelineState::kUnitIdle = -1'000'000,
  // so residues in (kUnitIdle, -1000] — real occupancy from a predecessor
  // block, merely old — were misreported as drained. The threshold now
  // splits the range at kUnitIdle / 2: only the sentinel's neighborhood
  // counts as idle.
  constexpr int kIdle = PipelineState::kUnitIdle;
  const auto drained_with = [](int last) {
    PipelineState s;
    s.unit_last_issue = {last};
    return s.is_drained();
  };
  EXPECT_TRUE(drained_with(kIdle));
  EXPECT_TRUE(drained_with(kIdle / 2));       // boundary: still sentinel-side
  EXPECT_FALSE(drained_with(kIdle / 2 + 1));  // first non-idle residue
  EXPECT_FALSE(drained_with(-5000));  // the old cutoff's blind spot
  EXPECT_FALSE(drained_with(-1000));
  EXPECT_FALSE(drained_with(0));

  // A mixed state is drained only when EVERY unit is.
  PipelineState mixed;
  mixed.unit_last_issue = {kIdle, -5000};
  EXPECT_FALSE(mixed.is_drained());
  mixed.unit_last_issue = {kIdle, kIdle};
  EXPECT_TRUE(mixed.is_drained());

  // Degenerate but valid: no units recorded means nothing constrains.
  EXPECT_TRUE(PipelineState{}.is_drained());
}

TEST(Timing, ExitStateRoundTripsThroughChainedTimers) {
  // Evaluating [first half] then [second half] with the exit state must
  // reproduce the one-shot evaluation of the whole order, NOP for NOP.
  const Machine m = Machine::unpipelined_units();
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Load #b\n"
      "3: Mul 1, 2\n"
      "4: Mul 2, 1\n"
      "5: Add 3, 4\n"
      "6: Store #x, 5\n");
  const DepGraph dag(block);
  const std::vector<TupleIndex> order = {0, 1, 2, 3, 4, 5};
  const Schedule whole = evaluate_order(m, dag, order);

  PipelineTimer first(m, dag);
  for (int i = 0; i < 3; ++i) first.push(order[static_cast<std::size_t>(i)]);
  // NOTE: dependences crossing the cut live in the same DAG, so the
  // second timer must also know the first half's issue cycles — chain by
  // continuing the SAME timer; exit_state_after() covers unit occupancy
  // for blocks with no cross-cut value dependences.
  const PipelineState exit_state = exit_state_after(m, first.snapshot());
  for (std::size_t u = 0; u < m.pipeline_count(); ++u) {
    EXPECT_LE(exit_state.unit_last_issue[u], 0);
  }
  for (int i = 3; i < 6; ++i) first.push(order[static_cast<std::size_t>(i)]);
  EXPECT_EQ(first.total_nops(), whole.total_nops());
}

TEST(Timing, RejectsMismatchedInitialState) {
  const Machine m = Machine::paper_simulation();
  const BasicBlock block = parse_block("1: Load #a\n");
  const DepGraph dag(block);
  PipelineState bad;
  bad.unit_last_issue = {0};  // machine has two units
  EXPECT_THROW(PipelineTimer(m, dag, bad), Error);
  PipelineState future;
  future.unit_last_issue = {1, 0};  // occupancy after block entry
  EXPECT_THROW(PipelineTimer(m, dag, future), Error);
}

TEST(Timing, EvaluateOrderRejectsIllegalOrder) {
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Neg 1\n");
  const Machine m = Machine::paper_simulation();
  const DepGraph dag(block);
  EXPECT_THROW(evaluate_order(m, dag, {1, 0}), Error);
  EXPECT_THROW(evaluate_order(m, dag, {0, 0}), Error);
  EXPECT_THROW(evaluate_order(m, dag, {0}), Error);
}

TEST(Timing, MuEqualsCompletionMinusLength) {
  // Identity mu == t(n) - n, used throughout the search's cost reasoning.
  const Machine m = Machine::paper_simulation();
  const BasicBlock block = parse_block(
      "1: Load #a\n"
      "2: Mul 1, 1\n"
      "3: Add 2, 1\n"
      "4: Store #a, 3\n");
  const DepGraph dag(block);
  const Schedule s = evaluate_order(m, dag, {0, 1, 2, 3});
  EXPECT_EQ(s.total_nops(),
            s.completion_cycle() - static_cast<int>(s.size()));
}

}  // namespace
}  // namespace pipesched
