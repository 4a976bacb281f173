// Dependence DAG over a basic block (paper Sections 3.1 and 4.2.1).
//
// Edges capture every ordering constraint a legal schedule must respect:
//   Flow    — value flows through a tuple reference (rho in the paper);
//   MemFlow — Load after the Store that produced the variable's value;
//   Anti    — Store after earlier Loads of the same variable;
//   Output  — Store after an earlier Store to the same variable.
// Variables are assumed unambiguous and mutually exclusive (Section 3.1),
// so memory dependences are exact per-variable chains.
//
// Beyond adjacency, the graph precomputes: immediate predecessor bitsets
// (edge de-duplication, legality checks, the strong equivalence classes of
// [5c]), transitive closures for earliest()/latest() (Definitions 6-7, the
// CP backend's issue windows; the list scheduler breaks height ties on
// descendant counts), and unit-weight heights for the list scheduler. The
// branch-and-bound search keeps its own ready set (DESIGN.md Section 3.11)
// and needs no window check: readiness [5b] subsumes [5a] (Section 3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/block.hpp"
#include "util/bitset.hpp"

namespace pipesched {

enum class DepKind : std::uint8_t { Flow, MemFlow, Anti, Output };

const char* dep_kind_name(DepKind kind);

struct DepEdge {
  TupleIndex from = -1;
  TupleIndex to = -1;
  DepKind kind = DepKind::Flow;
};

class DepGraph {
 public:
  explicit DepGraph(const BasicBlock& block);

  /// Construct with additional ordering constraints beyond the block's own
  /// dependences (each pair {from, to} forces from before to; from < to).
  /// Used by the register-allocation ablation, which injects the anti
  /// dependences a pre-scheduling allocator would impose via register
  /// reuse (paper Section 1, difference #1).
  DepGraph(const BasicBlock& block,
           const std::vector<std::pair<TupleIndex, TupleIndex>>& extra_edges);

  /// The graph keeps a pointer to its block, so a temporary block would
  /// dangle as soon as the constructor returned.
  explicit DepGraph(BasicBlock&&) = delete;
  DepGraph(BasicBlock&&,
           const std::vector<std::pair<TupleIndex, TupleIndex>>&) = delete;

  std::size_t size() const { return preds_.size(); }
  const BasicBlock& block() const { return *block_; }

  /// Immediate predecessors rho(i) / successors (unordered).
  const std::vector<TupleIndex>& preds(TupleIndex i) const;
  const std::vector<TupleIndex>& succs(TupleIndex i) const;

  /// Immediate predecessor set as a bitset.
  const DynBitset& pred_set(TupleIndex i) const;

  /// Transitive predecessors / successors (excluding i itself).
  const DynBitset& ancestors(TupleIndex i) const;
  const DynBitset& descendants(TupleIndex i) const;

  /// Definition 6: minimum 1-based schedule position of i
  /// (= |ancestors| + 1).
  int earliest_position(TupleIndex i) const;

  /// Definition 7: maximum 1-based schedule position of i
  /// (= n - |descendants|).
  int latest_position(TupleIndex i) const;

  /// Unit-weight longest path from i to a sink / from a source to i.
  int height(TupleIndex i) const;
  int depth(TupleIndex i) const;

  /// Longest chain in the DAG, in instructions.
  int critical_path_length() const;

  const std::vector<DepEdge>& edges() const { return edges_; }

  /// True when `order` is a permutation respecting every edge.
  bool is_legal_order(const std::vector<TupleIndex>& order) const;

  /// Graphviz dot rendering (debugging / docs).
  std::string to_dot() const;

 private:
  void add_edge(TupleIndex from, TupleIndex to, DepKind kind);
  void compute_closures();

  const BasicBlock* block_;
  std::vector<std::vector<TupleIndex>> preds_;
  std::vector<std::vector<TupleIndex>> succs_;
  std::vector<DynBitset> pred_sets_;
  std::vector<DynBitset> ancestors_;
  std::vector<DynBitset> descendants_;
  std::vector<int> height_;
  std::vector<int> depth_;
  std::vector<DepEdge> edges_;
};

/// Number of legal topological orders of `dag`, counted by backtracking and
/// clamped at `cap` (the paper reports the n=22 row of Table 1 as
/// ">9,999,000" for exactly this reason). Returns cap when the count
/// reaches it.
std::uint64_t count_topological_orders(const DepGraph& dag,
                                       std::uint64_t cap);

/// n! as a double (overflows uint64 past 20!).
double factorial_double(int n);

/// Exact n! with thousands separators, e.g. "1,307,674,368,000".
std::string factorial_pretty(int n);

}  // namespace pipesched
