// Unit and property tests for the dependence DAG (Definitions 2, 6, 7 and
// the legal-order machinery behind Table 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

#include "ir/block_parser.hpp"
#include "ir/dag.hpp"
#include "synth/generator.hpp"

namespace pipesched {
namespace {

const char* kFigure3 =
    "1: Const \"15\"\n"
    "2: Store #b, 1\n"
    "3: Load #a\n"
    "4: Mul 1, 3\n"
    "5: Store #a, 4\n";

// The graph keeps a pointer to its block, so a temporary block must not
// bind to either constructor; a named block still does.
using ExtraEdges = std::vector<std::pair<TupleIndex, TupleIndex>>;
static_assert(!std::is_constructible_v<DepGraph, BasicBlock&&>);
static_assert(
    !std::is_constructible_v<DepGraph, BasicBlock&&, const ExtraEdges&>);
static_assert(std::is_constructible_v<DepGraph, const BasicBlock&>);
static_assert(
    std::is_constructible_v<DepGraph, const BasicBlock&, const ExtraEdges&>);

bool has_edge(const DepGraph& dag, TupleIndex from, TupleIndex to,
              DepKind kind) {
  return std::any_of(dag.edges().begin(), dag.edges().end(),
                     [&](const DepEdge& e) {
                       return e.from == from && e.to == to && e.kind == kind;
                     });
}

TEST(Dag, Figure3EdgesAreExactlyRight) {
  const BasicBlock block = parse_block(kFigure3);
  const DepGraph dag(block);
  EXPECT_EQ(dag.edges().size(), 5u);
  EXPECT_TRUE(has_edge(dag, 0, 1, DepKind::Flow));   // Const -> Store b
  EXPECT_TRUE(has_edge(dag, 0, 3, DepKind::Flow));   // Const -> Mul
  EXPECT_TRUE(has_edge(dag, 2, 3, DepKind::Flow));   // Load a -> Mul
  EXPECT_TRUE(has_edge(dag, 3, 4, DepKind::Flow));   // Mul -> Store a
  EXPECT_TRUE(has_edge(dag, 2, 4, DepKind::Anti));   // Load a before Store a
}

TEST(Dag, MemoryDependenceChains) {
  // Store x; Load x; Store x: memflow then anti then output.
  const BasicBlock block = parse_block(
      "1: Const \"1\"\n"
      "2: Store #x, 1\n"
      "3: Load #x\n"
      "4: Const \"2\"\n"
      "5: Store #x, 4\n");
  const DepGraph dag(block);
  EXPECT_TRUE(has_edge(dag, 1, 2, DepKind::MemFlow));  // Store -> Load
  EXPECT_TRUE(has_edge(dag, 2, 4, DepKind::Anti));     // Load -> 2nd Store
  EXPECT_TRUE(has_edge(dag, 1, 4, DepKind::Output));   // Store -> Store
}

TEST(Dag, IndependentVariablesShareNoEdges) {
  const BasicBlock block = parse_block(
      "1: Load #x\n"
      "2: Load #y\n"
      "3: Store #x2, 1\n"
      "4: Store #y2, 2\n");
  const DepGraph dag(block);
  EXPECT_EQ(dag.edges().size(), 2u);  // only the two flow edges
  EXPECT_TRUE(dag.pred_set(1).is_disjoint_from(dag.pred_set(0)));
}

TEST(Dag, EarliestAndLatestPositions) {
  const BasicBlock block = parse_block(kFigure3);
  const DepGraph dag(block);
  // Const (tuple 1): no ancestors, two descendants in its future? Const
  // feeds Store b and Mul; Mul feeds Store a => 3 descendants.
  EXPECT_EQ(dag.earliest_position(0), 1);
  EXPECT_EQ(dag.latest_position(0), 5 - 3);
  // Store a (tuple 5): ancestors {Const, Load, Mul} -> earliest 4; sink.
  EXPECT_EQ(dag.earliest_position(4), 4);
  EXPECT_EQ(dag.latest_position(4), 5);
  // Load a (tuple 3): source; descendants {Mul, Store a}.
  EXPECT_EQ(dag.earliest_position(2), 1);
  EXPECT_EQ(dag.latest_position(2), 3);
}

TEST(Dag, HeightsDepthsAndCriticalPath) {
  const BasicBlock block = parse_block(kFigure3);
  const DepGraph dag(block);
  // Chain Const -> Mul -> Store a has length 3.
  EXPECT_EQ(dag.critical_path_length(), 3);
  EXPECT_EQ(dag.height(0), 2);  // Const: two hops below (Mul, Store)
  EXPECT_EQ(dag.depth(4), 2);   // Store a: two hops above
  EXPECT_EQ(dag.depth(0), 0);
  EXPECT_EQ(dag.height(4), 0);
}

TEST(Dag, TransitiveClosureIsConsistentWithEdges) {
  GeneratorParams params;
  params.statements = 8;
  params.variables = 4;
  params.constants = 2;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    params.seed = seed;
    const BasicBlock block = generate_block(params);
    const DepGraph dag(block);
    for (std::size_t i = 0; i < dag.size(); ++i) {
      const auto index = static_cast<TupleIndex>(i);
      // Immediate preds are ancestors; ancestor-of-ancestor is ancestor.
      for (TupleIndex p : dag.preds(index)) {
        EXPECT_TRUE(dag.ancestors(index).test(static_cast<std::size_t>(p)));
        EXPECT_TRUE(dag.ancestors(p).is_subset_of(dag.ancestors(index)));
        EXPECT_TRUE(
            dag.descendants(p).test(static_cast<std::size_t>(index)));
      }
      // earliest/latest window is always feasible.
      EXPECT_LE(dag.earliest_position(index), dag.latest_position(index));
    }
  }
}

TEST(Dag, IsLegalOrderAcceptsAndRejects) {
  const BasicBlock block = parse_block(kFigure3);
  const DepGraph dag(block);
  EXPECT_TRUE(dag.is_legal_order({0, 1, 2, 3, 4}));
  EXPECT_TRUE(dag.is_legal_order({2, 0, 3, 1, 4}));
  EXPECT_FALSE(dag.is_legal_order({1, 0, 2, 3, 4}));  // Store b before Const
  EXPECT_FALSE(dag.is_legal_order({0, 1, 2, 3}));     // wrong size
  EXPECT_FALSE(dag.is_legal_order({0, 0, 2, 3, 4}));  // repeat
}

TEST(Dag, CountTopologicalOrdersSmallCases) {
  // Independent tuples: n! orders.
  const BasicBlock indep = parse_block(
      "1: Load #a\n"
      "2: Load #b\n"
      "3: Load #c\n");
  EXPECT_EQ(count_topological_orders(DepGraph(indep), 1000), 6u);

  // A pure chain admits exactly one order.
  const BasicBlock chain = parse_block(
      "1: Load #a\n"
      "2: Neg 1\n"
      "3: Neg 2\n"
      "4: Store #a, 3\n");
  EXPECT_EQ(count_topological_orders(DepGraph(chain), 1000), 1u);

  // Figure 3: enumerate by hand = 5 positions constrained; verified value.
  const BasicBlock fig3 = parse_block(kFigure3);
  const std::uint64_t n = count_topological_orders(DepGraph(fig3), 1000);
  // Cross-check against brute force over all 120 permutations.
  const DepGraph dag(fig3);
  std::vector<TupleIndex> perm = {0, 1, 2, 3, 4};
  std::uint64_t brute = 0;
  do {
    brute += dag.is_legal_order(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_EQ(n, brute);
}

TEST(Dag, CountTopologicalOrdersHonoursCap) {
  const BasicBlock indep = parse_block(
      "1: Load #a\n"
      "2: Load #b\n"
      "3: Load #c\n"
      "4: Load #d\n"
      "5: Load #e\n");
  EXPECT_EQ(count_topological_orders(DepGraph(indep), 10), 10u);
  EXPECT_EQ(count_topological_orders(DepGraph(indep), 1000), 120u);
}

TEST(Dag, ExtraEdgesConstrainTheOrder) {
  const BasicBlock indep = parse_block(
      "1: Load #a\n"
      "2: Load #b\n");
  const DepGraph free_dag(indep);
  EXPECT_TRUE(free_dag.is_legal_order({1, 0}));
  const DepGraph forced(indep, {{0, 1}});
  EXPECT_FALSE(forced.is_legal_order({1, 0}));
  EXPECT_TRUE(forced.is_legal_order({0, 1}));
}

TEST(Dag, FactorialHelpers) {
  EXPECT_EQ(factorial_pretty(0), "1");
  EXPECT_EQ(factorial_pretty(5), "120");
  EXPECT_EQ(factorial_pretty(15), "1,307,674,368,000");  // the 5-year number
  EXPECT_EQ(factorial_pretty(22), "1,124,000,727,777,607,680,000");  // 1.1e21
  EXPECT_NEAR(factorial_double(15), 1.307674368e12, 1e3);
}

TEST(Dag, DotRenderingContainsAllNodes) {
  const BasicBlock block = parse_block(kFigure3);
  const std::string dot = DepGraph(block).to_dot();
  for (int i = 1; i <= 5; ++i) {
    EXPECT_NE(dot.find("n" + std::to_string(i) + " ["), std::string::npos);
  }
  EXPECT_NE(dot.find("anti"), std::string::npos);
}

}  // namespace
}  // namespace pipesched
