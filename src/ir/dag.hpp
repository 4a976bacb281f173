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
//
// Storage is flat (DESIGN.md Section 3.12): the adjacency is compressed
// sparse rows filled in edge-insertion order, so preds(i) and succs(i)
// list their edges in the order the rules above created them; the
// pred-set, ancestor and descendant matrices are one word array of
// 3 * n * ceil(n/64) words; the per-variable memory state of the build is
// indexed by VarId. A block therefore costs a fixed number of
// allocations, whatever its size.
#pragma once

#include <cstdint>
#include <span>
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
  /// Largest block the graph accepts. Its bit matrices take
  /// 3 * n * ceil(n/64) words, 24 MiB at this size; a larger block throws
  /// Error before anything is allocated.
  static constexpr std::size_t kMaxBlockTuples = 8192;

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

  std::size_t size() const { return n_; }
  const BasicBlock& block() const { return *block_; }

  /// Immediate predecessors rho(i) / successors, in edge-insertion order.
  std::span<const TupleIndex> preds(TupleIndex i) const {
    PS_ASSERT(i >= 0 && static_cast<std::size_t>(i) < n_);
    const auto k = static_cast<std::size_t>(i);
    return {pred_list_.data() + pred_start_[k],
            pred_list_.data() + pred_start_[k + 1]};
  }
  std::span<const TupleIndex> succs(TupleIndex i) const {
    PS_ASSERT(i >= 0 && static_cast<std::size_t>(i) < n_);
    const auto k = static_cast<std::size_t>(i);
    return {succ_list_.data() + succ_start_[k],
            succ_list_.data() + succ_start_[k + 1]};
  }

  /// Immediate predecessor set as a bitset.
  BitRow pred_set(TupleIndex i) const;

  /// Transitive predecessors / successors (excluding i itself).
  BitRow ancestors(TupleIndex i) const;
  BitRow descendants(TupleIndex i) const;

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
  /// The three n x words_per_row_ bit matrices inside bits_.
  enum Matrix : std::size_t { kPredSet, kAncestors, kDescendants };

  std::uint64_t* row_words(Matrix m, std::size_t i) {
    return bits_.data() + (m * n_ + i) * words_per_row_;
  }
  BitRow row(Matrix m, TupleIndex i) const;

  void add_edge(TupleIndex from, TupleIndex to, DepKind kind);
  void build_adjacency();
  void compute_closures();

  const BasicBlock* block_;
  std::size_t n_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> bits_;
  std::vector<DepEdge> edges_;
  /// Compressed sparse rows: preds(i) is pred_list_[pred_start_[i]] up to
  /// pred_list_[pred_start_[i + 1]], and likewise for succs.
  std::vector<std::uint32_t> pred_start_;
  std::vector<std::uint32_t> succ_start_;
  std::vector<TupleIndex> pred_list_;
  std::vector<TupleIndex> succ_list_;
  std::vector<int> height_;
  std::vector<int> depth_;
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
