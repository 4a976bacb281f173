#include "ir/dag.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace pipesched {

const char* dep_kind_name(DepKind kind) {
  switch (kind) {
    case DepKind::Flow:
      return "flow";
    case DepKind::MemFlow:
      return "memflow";
    case DepKind::Anti:
      return "anti";
    case DepKind::Output:
      return "output";
  }
  return "?";
}

DepGraph::DepGraph(const BasicBlock& block) : DepGraph(block, {}) {}

DepGraph::DepGraph(
    const BasicBlock& block,
    const std::vector<std::pair<TupleIndex, TupleIndex>>& extra_edges)
    : block_(&block), n_(block.size()) {
  PS_CHECK(n_ <= kMaxBlockTuples,
           "block of " << n_ << " tuples exceeds the dependence graph's "
                       << "limit of " << kMaxBlockTuples
                       << " tuples (DepGraph::kMaxBlockTuples)");
  words_per_row_ = (n_ + 63) / 64;
  bits_.assign(3 * n_ * words_per_row_, 0);
  // A tuple adds at most two edges of its own: two Flow operands, a
  // Store's Flow and Output, or a Load's MemFlow and the Anti edge to its
  // variable's next Store.
  edges_.reserve(2 * n_ + extra_edges.size());

  // Per-variable memory-dependence state, indexed by VarId: the last
  // Store, and the Loads since it, oldest first, as a list threaded
  // through next_load.
  struct VarState {
    TupleIndex last_store = -1;
    TupleIndex first_load = -1;
    TupleIndex last_load = -1;
  };
  std::vector<VarState> vars(block.var_count());
  std::vector<TupleIndex> next_load(n_, -1);

  for (std::size_t i = 0; i < n_; ++i) {
    const auto index = static_cast<TupleIndex>(i);
    const Tuple& t = block.tuple(index);

    for (const Operand* o : {&t.a, &t.b}) {
      if (o->is_ref()) add_edge(o->ref, index, DepKind::Flow);
    }

    if (t.op == Opcode::Load) {
      VarState& v = vars[static_cast<std::size_t>(t.a.var)];
      if (v.last_store >= 0) add_edge(v.last_store, index, DepKind::MemFlow);
      (v.last_load >= 0 ? next_load[static_cast<std::size_t>(v.last_load)]
                        : v.first_load) = index;
      v.last_load = index;
    } else if (t.op == Opcode::Store) {
      VarState& v = vars[static_cast<std::size_t>(t.a.var)];
      for (TupleIndex load = v.first_load; load >= 0;
           load = next_load[static_cast<std::size_t>(load)]) {
        add_edge(load, index, DepKind::Anti);
      }
      v.first_load = v.last_load = -1;
      if (v.last_store >= 0) add_edge(v.last_store, index, DepKind::Output);
      v.last_store = index;
    }
  }

  for (const auto& [from, to] : extra_edges) {
    PS_CHECK(from >= 0 && to >= 0 && from < to &&
                 static_cast<std::size_t>(to) < n_,
             "extra edge must order an earlier tuple before a later one");
    add_edge(from, to, DepKind::Anti);
  }

  build_adjacency();
  compute_closures();
}

void DepGraph::add_edge(TupleIndex from, TupleIndex to, DepKind kind) {
  PS_ASSERT(from >= 0 && to >= 0 && from < to &&
            static_cast<std::size_t>(to) < n_);
  // De-duplicate parallel edges (e.g. a Store whose value is a Load of the
  // same variable carries both Flow and Anti constraints — one edge is
  // enough, and the first recorded kind wins).
  std::uint64_t& word =
      row_words(kPredSet, static_cast<std::size_t>(to))[from >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (from & 63);
  if (word & bit) return;
  word |= bit;
  edges_.push_back({from, to, kind});
}

void DepGraph::build_adjacency() {
  // Counting sort of the edges by target (preds) and by source (succs).
  // After the inclusive prefix sums each start holds its row's end;
  // filling from the last edge backwards moves it to the row's beginning
  // and leaves every row in edge-insertion order.
  pred_start_.assign(n_ + 1, 0);
  succ_start_.assign(n_ + 1, 0);
  for (const DepEdge& e : edges_) {
    ++pred_start_[static_cast<std::size_t>(e.to)];
    ++succ_start_[static_cast<std::size_t>(e.from)];
  }
  for (std::size_t i = 1; i < n_; ++i) {
    pred_start_[i] += pred_start_[i - 1];
    succ_start_[i] += succ_start_[i - 1];
  }
  pred_start_[n_] = succ_start_[n_] =
      static_cast<std::uint32_t>(edges_.size());
  pred_list_.resize(edges_.size());
  succ_list_.resize(edges_.size());
  for (auto e = edges_.rbegin(); e != edges_.rend(); ++e) {
    pred_list_[--pred_start_[static_cast<std::size_t>(e->to)]] = e->from;
    succ_list_[--succ_start_[static_cast<std::size_t>(e->from)]] = e->to;
  }
}

void DepGraph::compute_closures() {
  height_.assign(n_, 0);
  depth_.assign(n_, 0);
  // Row i of a closure is the union, over i's neighbours j, of j and j's
  // row. Tuple indices are already topologically sorted (references point
  // backward), so one forward and one backward sweep suffice.
  const auto close = [&](Matrix m, std::size_t i, TupleIndex j) {
    std::uint64_t* into = row_words(m, i);
    const std::uint64_t* from = row_words(m, static_cast<std::size_t>(j));
    for (std::size_t w = 0; w < words_per_row_; ++w) into[w] |= from[w];
    into[j >> 6] |= std::uint64_t{1} << (j & 63);
  };
  for (std::size_t i = 0; i < n_; ++i) {
    for (TupleIndex p : preds(static_cast<TupleIndex>(i))) {
      close(kAncestors, i, p);
      depth_[i] =
          std::max(depth_[i], depth_[static_cast<std::size_t>(p)] + 1);
    }
  }
  for (std::size_t ri = n_; ri-- > 0;) {
    for (TupleIndex s : succs(static_cast<TupleIndex>(ri))) {
      close(kDescendants, ri, s);
      height_[ri] =
          std::max(height_[ri], height_[static_cast<std::size_t>(s)] + 1);
    }
  }
}

std::span<const TupleIndex> DepGraph::preds(TupleIndex i) const {
  PS_ASSERT(i >= 0 && static_cast<std::size_t>(i) < n_);
  const auto k = static_cast<std::size_t>(i);
  return {pred_list_.data() + pred_start_[k],
          pred_list_.data() + pred_start_[k + 1]};
}

std::span<const TupleIndex> DepGraph::succs(TupleIndex i) const {
  PS_ASSERT(i >= 0 && static_cast<std::size_t>(i) < n_);
  const auto k = static_cast<std::size_t>(i);
  return {succ_list_.data() + succ_start_[k],
          succ_list_.data() + succ_start_[k + 1]};
}

BitRow DepGraph::row(Matrix m, TupleIndex i) const {
  PS_ASSERT(i >= 0 && static_cast<std::size_t>(i) < n_);
  return {bits_.data() + (m * n_ + static_cast<std::size_t>(i)) *
                             words_per_row_,
          n_};
}

BitRow DepGraph::pred_set(TupleIndex i) const { return row(kPredSet, i); }

BitRow DepGraph::ancestors(TupleIndex i) const { return row(kAncestors, i); }

BitRow DepGraph::descendants(TupleIndex i) const {
  return row(kDescendants, i);
}

int DepGraph::earliest_position(TupleIndex i) const {
  return static_cast<int>(ancestors(i).count()) + 1;
}

int DepGraph::latest_position(TupleIndex i) const {
  return static_cast<int>(size() - descendants(i).count());
}

int DepGraph::height(TupleIndex i) const {
  PS_ASSERT(i >= 0 && static_cast<std::size_t>(i) < height_.size());
  return height_[static_cast<std::size_t>(i)];
}

int DepGraph::depth(TupleIndex i) const {
  PS_ASSERT(i >= 0 && static_cast<std::size_t>(i) < depth_.size());
  return depth_[static_cast<std::size_t>(i)];
}

int DepGraph::critical_path_length() const {
  int best = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    best = std::max(best, height_[i] + 1);
  }
  return size() ? best : 0;
}

bool DepGraph::is_legal_order(const std::vector<TupleIndex>& order) const {
  if (order.size() != size()) return false;
  DynBitset placed(size());
  for (TupleIndex i : order) {
    if (i < 0 || static_cast<std::size_t>(i) >= size()) return false;
    if (placed.test(static_cast<std::size_t>(i))) return false;
    if (!pred_set(i).is_subset_of(placed)) return false;
    placed.set(static_cast<std::size_t>(i));
  }
  return true;
}

std::string DepGraph::to_dot() const {
  std::ostringstream oss;
  oss << "digraph block {\n  rankdir=TB;\n";
  for (std::size_t i = 0; i < size(); ++i) {
    const Tuple& t = block_->tuple(static_cast<TupleIndex>(i));
    oss << "  n" << i + 1 << " [label=\"" << i + 1 << ": "
        << opcode_name(t.op) << "\"];\n";
  }
  for (const DepEdge& e : edges_) {
    oss << "  n" << e.from + 1 << " -> n" << e.to + 1 << " [label=\""
        << dep_kind_name(e.kind) << "\"];\n";
  }
  oss << "}\n";
  return oss.str();
}

namespace {

std::uint64_t count_orders_recursive(const DepGraph& dag, DynBitset& placed,
                                     std::vector<int>& unplaced_preds,
                                     std::size_t placed_count,
                                     std::uint64_t budget) {
  const std::size_t n = dag.size();
  if (placed_count == n) return 1;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n && budget > 0; ++i) {
    if (placed.test(i) || unplaced_preds[i] != 0) continue;
    placed.set(i);
    for (TupleIndex s : dag.succs(static_cast<TupleIndex>(i))) {
      --unplaced_preds[static_cast<std::size_t>(s)];
    }
    const std::uint64_t found = count_orders_recursive(
        dag, placed, unplaced_preds, placed_count + 1, budget);
    total += found;
    budget -= found;
    placed.reset(i);
    for (TupleIndex s : dag.succs(static_cast<TupleIndex>(i))) {
      ++unplaced_preds[static_cast<std::size_t>(s)];
    }
  }
  return total;
}

}  // namespace

std::uint64_t count_topological_orders(const DepGraph& dag,
                                       std::uint64_t cap) {
  PS_CHECK(cap > 0, "cap must be positive");
  DynBitset placed(dag.size());
  std::vector<int> unplaced_preds(dag.size());
  for (std::size_t i = 0; i < dag.size(); ++i) {
    unplaced_preds[i] =
        static_cast<int>(dag.preds(static_cast<TupleIndex>(i)).size());
  }
  return count_orders_recursive(dag, placed, unplaced_preds, 0, cap);
}

double factorial_double(int n) {
  PS_CHECK(n >= 0, "factorial of negative value");
  double f = 1;
  for (int i = 2; i <= n; ++i) f *= i;
  return f;
}

std::string factorial_pretty(int n) {
  PS_CHECK(n >= 0 && n <= 40, "factorial_pretty supports 0..40, got " << n);
  // Exact product over base-1e9 limbs, little-endian.
  std::vector<std::uint64_t> limbs{1};
  constexpr std::uint64_t kBase = 1'000'000'000;
  for (int i = 2; i <= n; ++i) {
    std::uint64_t carry = 0;
    for (auto& limb : limbs) {
      const std::uint64_t value = limb * static_cast<std::uint64_t>(i) + carry;
      limb = value % kBase;
      carry = value / kBase;
    }
    while (carry) {
      limbs.push_back(carry % kBase);
      carry /= kBase;
    }
  }
  std::string digits = std::to_string(limbs.back());
  for (std::size_t i = limbs.size() - 1; i-- > 0;) {
    std::string part = std::to_string(limbs[i]);
    digits += std::string(9 - part.size(), '0') + part;
  }
  // Insert thousands separators.
  std::string out;
  const std::size_t len = digits.size();
  for (std::size_t i = 0; i < len; ++i) {
    if (i && (len - i) % 3 == 0) out += ',';
    out += digits[i];
  }
  return out;
}

}  // namespace pipesched
