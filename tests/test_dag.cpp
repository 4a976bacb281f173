// Unit and property tests for the dependence DAG (Definitions 2, 6, 7 and
// the legal-order machinery behind Table 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ir/block_parser.hpp"
#include "ir/dag.hpp"
#include "synth/generator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

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
    EXPECT_NE(dot.find(std::string("n").append(std::to_string(i)).append(" [")),
              std::string::npos);
  }
  EXPECT_NE(dot.find("anti"), std::string::npos);
}

// ---- Reference oracle ------------------------------------------------

/// The dependence graph as the header's four rules state it, built with
/// plain containers: edges by backward scans, closures by depth-first
/// search. DepGraph must agree with it on every edge, every adjacency
/// sequence, every bit row, every height and every depth.
struct ReferenceDag {
  std::vector<DepEdge> edges;  ///< insertion order, first kind wins
  std::vector<std::vector<TupleIndex>> preds, succs;
  std::vector<std::set<TupleIndex>> pred_set, ancestors, descendants;
  std::vector<int> height, depth;
};

ReferenceDag reference_dag(const BasicBlock& block, const ExtraEdges& extra) {
  const auto n = static_cast<TupleIndex>(block.size());
  ReferenceDag ref;
  ref.preds.resize(block.size());
  ref.succs.resize(block.size());
  ref.pred_set.resize(block.size());
  std::set<std::pair<TupleIndex, TupleIndex>> seen;
  const auto add = [&](TupleIndex from, TupleIndex to, DepKind kind) {
    if (!seen.insert({from, to}).second) return;
    ref.edges.push_back({from, to, kind});
    ref.preds[static_cast<std::size_t>(to)].push_back(from);
    ref.succs[static_cast<std::size_t>(from)].push_back(to);
    ref.pred_set[static_cast<std::size_t>(to)].insert(from);
  };
  const auto is_access = [&](TupleIndex j, Opcode op, VarId var) {
    const Tuple& t = block.tuple(j);
    return t.op == op && t.a.var == var;
  };
  // The latest Store to `var` before tuple i, or -1.
  const auto last_store = [&](TupleIndex i, VarId var) {
    for (TupleIndex j = i - 1; j >= 0; --j) {
      if (is_access(j, Opcode::Store, var)) return j;
    }
    return TupleIndex{-1};
  };
  for (TupleIndex i = 0; i < n; ++i) {
    const Tuple& t = block.tuple(i);
    // Flow: the value flows through a tuple reference.
    if (t.a.is_ref()) add(t.a.ref, i, DepKind::Flow);
    if (t.b.is_ref()) add(t.b.ref, i, DepKind::Flow);
    if (t.op == Opcode::Load) {
      // MemFlow: Load after the Store that produced the variable's value.
      const TupleIndex store = last_store(i, t.a.var);
      if (store >= 0) add(store, i, DepKind::MemFlow);
    } else if (t.op == Opcode::Store) {
      // Anti: Store after the Loads that read the previous value.
      const TupleIndex store = last_store(i, t.a.var);
      for (TupleIndex j = store + 1; j < i; ++j) {
        if (is_access(j, Opcode::Load, t.a.var)) add(j, i, DepKind::Anti);
      }
      // Output: Store after an earlier Store to the same variable.
      if (store >= 0) add(store, i, DepKind::Output);
    }
  }
  for (const auto& [from, to] : extra) add(from, to, DepKind::Anti);

  const auto reach = [&](const std::vector<std::vector<TupleIndex>>& adj,
                         TupleIndex start) {
    std::set<TupleIndex> found;
    std::vector<TupleIndex> stack = {start};
    while (!stack.empty()) {
      const TupleIndex v = stack.back();
      stack.pop_back();
      for (TupleIndex w : adj[static_cast<std::size_t>(v)]) {
        if (found.insert(w).second) stack.push_back(w);
      }
    }
    return found;
  };
  ref.height.assign(block.size(), -1);
  ref.depth.assign(block.size(), -1);
  // Longest path along `adj`, memoized in `memo`.
  const auto longest = [&](const auto& self,
                           const std::vector<std::vector<TupleIndex>>& adj,
                           std::vector<int>& memo, TupleIndex v) -> int {
    int& m = memo[static_cast<std::size_t>(v)];
    if (m >= 0) return m;
    int best = 0;
    for (TupleIndex w : adj[static_cast<std::size_t>(v)]) {
      best = std::max(best, self(self, adj, memo, w) + 1);
    }
    return m = best;
  };
  for (TupleIndex i = 0; i < n; ++i) {
    ref.ancestors.push_back(reach(ref.preds, i));
    ref.descendants.push_back(reach(ref.succs, i));
    longest(longest, ref.succs, ref.height, i);
    longest(longest, ref.preds, ref.depth, i);
  }
  return ref;
}

/// A random legal block over `vars` variables: Const, Load, Store, Mov,
/// Neg and binary tuples whose operands refer to earlier values.
BasicBlock random_block(Rng& rng, std::size_t size, int vars) {
  BasicBlock block;
  std::vector<VarId> var_ids;
  for (int v = 0; v < vars; ++v) {
    std::string name(1, 'v');
    name += std::to_string(v);
    var_ids.push_back(block.var_id(name));
  }
  std::vector<TupleIndex> values;
  const auto var = [&] {
    return Operand::of_var(var_ids[rng.next_below(var_ids.size())]);
  };
  const auto value = [&] {
    if (values.empty() || rng.next_bool(0.15)) {
      return Operand::of_imm(rng.next_in(-9, 9));
    }
    return Operand::of_ref(values[rng.next_below(values.size())]);
  };
  constexpr Opcode kArith[] = {Opcode::Mov, Opcode::Neg, Opcode::Add,
                               Opcode::Sub, Opcode::Mul, Opcode::Div};
  while (block.size() < size) {
    const std::uint64_t kind = rng.next_below(10);
    TupleIndex index;
    if (kind < 3) {
      index = block.append(Opcode::Load, var());
    } else if (kind < 6) {
      block.append(Opcode::Store, var(), value());
      continue;
    } else if (kind == 6) {
      index = block.append(Opcode::Const, Operand::of_imm(rng.next_in(0, 99)));
    } else {
      const Opcode op = kArith[rng.next_below(std::size(kArith))];
      const Operand a = value();
      index = opcode_arity(op) == 1 ? block.append(op, a)
                                    : block.append(op, a, value());
    }
    values.push_back(index);
  }
  return block;
}

void expect_row(BitRow row, const std::set<TupleIndex>& expected,
                std::size_t n) {
  ASSERT_EQ(row.size(), n);
  EXPECT_EQ(row.count(), expected.size());
  std::set<TupleIndex> bits;
  row.for_each([&](std::size_t j) {
    EXPECT_TRUE(row.test(j));
    bits.insert(static_cast<TupleIndex>(j));
  });
  EXPECT_EQ(bits, expected);
}

void expect_matches_reference(const BasicBlock& block,
                              const ExtraEdges& extra) {
  const DepGraph dag(block, extra);
  const ReferenceDag ref = reference_dag(block, extra);
  const std::size_t n = block.size();
  ASSERT_EQ(dag.size(), n);
  ASSERT_EQ(dag.edges().size(), ref.edges.size());
  for (std::size_t e = 0; e < ref.edges.size(); ++e) {
    EXPECT_EQ(dag.edges()[e].from, ref.edges[e].from) << "edge " << e;
    EXPECT_EQ(dag.edges()[e].to, ref.edges[e].to) << "edge " << e;
    EXPECT_EQ(dag.edges()[e].kind, ref.edges[e].kind) << "edge " << e;
  }
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE("tuple " + std::to_string(i));
    const auto index = static_cast<TupleIndex>(i);
    const auto preds = dag.preds(index);
    const auto succs = dag.succs(index);
    EXPECT_EQ(std::vector<TupleIndex>(preds.begin(), preds.end()),
              ref.preds[i]);
    EXPECT_EQ(std::vector<TupleIndex>(succs.begin(), succs.end()),
              ref.succs[i]);
    expect_row(dag.pred_set(index), ref.pred_set[i], n);
    expect_row(dag.ancestors(index), ref.ancestors[i], n);
    expect_row(dag.descendants(index), ref.descendants[i], n);
    EXPECT_EQ(dag.height(index), ref.height[i]);
    EXPECT_EQ(dag.depth(index), ref.depth[i]);
    if (i > 0) {
      EXPECT_EQ(dag.pred_set(index) == dag.pred_set(index - 1),
                ref.pred_set[i] == ref.pred_set[i - 1]);
      EXPECT_EQ(dag.ancestors(index).is_disjoint_from(
                    dag.ancestors(index - 1)),
                std::none_of(ref.ancestors[i].begin(), ref.ancestors[i].end(),
                             [&](TupleIndex a) {
                               return ref.ancestors[i - 1].count(a) > 0;
                             }));
      EXPECT_EQ(dag.ancestors(index - 1).is_subset_of(dag.ancestors(index)),
                std::includes(ref.ancestors[i].begin(),
                              ref.ancestors[i].end(),
                              ref.ancestors[i - 1].begin(),
                              ref.ancestors[i - 1].end()));
    }
  }
}

// Few variables make memory edges dense; the sizes straddle the 64- and
// 128-tuple word edges of the bit rows.
TEST(Dag, MatchesReferenceOracleOnRandomBlocks) {
  constexpr std::size_t kSizes[] = {1, 2, 5, 12, 30, 63, 64, 65,
                                    100, 127, 128, 129, 140};
  Rng rng(0xda60a11ce);
  for (int b = 0; b < 2260; ++b) {
    const std::size_t size =
        b < 2000 ? 1 + rng.next_below(40) : kSizes[b % std::size(kSizes)];
    const int vars = 1 + static_cast<int>(rng.next_below(4));
    const BasicBlock block = random_block(rng, size, vars);
    // Extra edges, some of them repeating an edge the block already has.
    ExtraEdges extra;
    for (std::size_t k = rng.next_below(size / 2 + 1); k-- > 0;) {
      const auto from = static_cast<TupleIndex>(rng.next_below(size));
      const auto to = static_cast<TupleIndex>(rng.next_below(size));
      if (from < to) extra.emplace_back(from, to);
    }
    SCOPED_TRACE("block " + std::to_string(b) + " of " +
                 std::to_string(size) + " tuples");
    expect_matches_reference(block, {});
    expect_matches_reference(block, extra);
    if (::testing::Test::HasFailure()) return;
  }
}

// Blocks are capped before the bit matrices are allocated.
TEST(Dag, BlockSizeLimit) {
  BasicBlock block;
  const Operand x = Operand::of_var(block.var_id("x"));
  while (block.size() < DepGraph::kMaxBlockTuples) {
    block.append(block.size() % 2 == 0 ? Opcode::Load : Opcode::Store, x,
                 block.size() % 2 == 0
                     ? Operand::none()
                     : Operand::of_ref(
                           static_cast<TupleIndex>(block.size() - 1)));
  }
  const DepGraph at_limit(block);
  EXPECT_EQ(at_limit.size(), DepGraph::kMaxBlockTuples);
  EXPECT_EQ(at_limit.critical_path_length(),
            static_cast<int>(DepGraph::kMaxBlockTuples));

  block.append(Opcode::Load, x);
  try {
    const DepGraph over(block);
    ADD_FAILURE() << "a block over the limit was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  std::to_string(DepGraph::kMaxBlockTuples)),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace pipesched
