#include "frontend/opt/passes.hpp"

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "frontend/opt/rewrite.hpp"
#include "ir/interp.hpp"
#include "util/check.hpp"

namespace pipesched {

namespace {

/// Applies the first rule that matches `t`, whose refs are value numbers
/// (indices into `out`), and reports whether one did. A rule that finds
/// `t`'s value in an existing value or an immediate rewrites `t` to a Mov
/// of it; constant folding turns a Mov of an immediate into a Const.
bool simplify(Tuple& t, const std::vector<Tuple>& out) {
  const auto constant = [&](const Operand& o) -> std::optional<std::int64_t> {
    if (o.is_imm()) return o.imm;
    if (!o.is_ref()) return std::nullopt;
    const Tuple& def = out[static_cast<std::size_t>(o.ref)];
    if (def.op == Opcode::Const) return def.a.imm;
    return std::nullopt;
  };
  const auto ca = constant(t.a);
  const auto cb = constant(t.b);
  const auto is = [](const std::optional<std::int64_t>& c, std::int64_t v) {
    return c && *c == v;
  };
  const auto become = [&t](Opcode op, Operand a, Operand b = Operand::none()) {
    t = Tuple{op, a, b};
    return true;
  };
  const Operand zero = Operand::of_imm(0);

  const bool foldable = t.op == Opcode::Mov || t.op == Opcode::Neg ||
                        opcode_is_binary_arith(t.op);
  if (foldable && ca && (opcode_arity(t.op) == 1 || cb)) {
    return become(Opcode::Const,
                  Operand::of_imm(eval_op(t.op, *ca, cb.value_or(0))));
  }
  switch (t.op) {
    case Opcode::Add:
      if (is(ca, 0)) return become(Opcode::Mov, t.b);
      if (is(cb, 0)) return become(Opcode::Mov, t.a);
      break;
    case Opcode::Sub:
      if (is(cb, 0)) return become(Opcode::Mov, t.a);
      if (t.a == t.b) return become(Opcode::Const, zero);
      if (is(ca, 0)) return become(Opcode::Neg, t.b);
      break;
    case Opcode::Mul:
      if (is(ca, 0) || is(cb, 0)) return become(Opcode::Const, zero);
      if (is(ca, 1)) return become(Opcode::Mov, t.b);
      if (is(cb, 1)) return become(Opcode::Mov, t.a);
      // Strength reduction: x*2 becomes x+x, moving the operation from
      // the multiplier pipeline onto the adder.
      if (is(ca, 2)) return become(Opcode::Add, t.b, t.b);
      if (is(cb, 2)) return become(Opcode::Add, t.a, t.a);
      break;
    case Opcode::Div:
      if (is(cb, 1)) return become(Opcode::Mov, t.a);
      // 0/x == 0 for every x under the div-by-zero-yields-0 convention.
      if (is(ca, 0)) return become(Opcode::Const, zero);
      break;
    case Opcode::Neg:
      // --x == x.
      if (t.a.is_ref() && out[static_cast<std::size_t>(t.a.ref)].op ==
                              Opcode::Neg) {
        return become(Opcode::Mov, out[static_cast<std::size_t>(t.a.ref)].a);
      }
      break;
    default:
      break;
  }
  return false;
}

/// A value-producing tuple's identity in the value table: its opcode, then
/// each operand's kind and payload, Add and Mul operands in ascending
/// order. An immediate never matches a ref.
using ValueKey = std::array<std::int64_t, 5>;

ValueKey value_key(const Tuple& t) {
  const auto operand = [](const Operand& o) {
    const std::int64_t payload = o.is_imm() ? o.imm : o.is_ref() ? o.ref : 0;
    return std::array<std::int64_t, 2>{static_cast<std::int64_t>(o.kind),
                                       payload};
  };
  auto a = operand(t.a);
  auto b = operand(t.b);
  if (opcode_is_commutative(t.op) && b < a) std::swap(a, b);
  return {static_cast<std::int64_t>(t.op), a[0], a[1], b[0], b[1]};
}

std::uint64_t hash_value_key(const ValueKey& key) {
  std::uint64_t h = 0;
  for (const std::int64_t word : key) {
    h = (h ^ static_cast<std::uint64_t>(word)) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  }
  return h;
}

/// The LVN value table: the value-producing tuples of the output, found by
/// ValueKey through one open-addressing array of output indices (-1 marks
/// an empty slot), sized once to stay at most half full.
class ValueTable {
 public:
  explicit ValueTable(std::size_t capacity) {
    std::size_t slots = 16;
    while (slots < 2 * capacity) slots *= 2;
    slots_.assign(slots, -1);
  }

  /// The output tuple whose key is `key`; when there is none, `next`,
  /// which is recorded as that key's tuple.
  TupleIndex find_or_add(const ValueKey& key, TupleIndex next,
                         const std::vector<Tuple>& out) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = static_cast<std::size_t>(hash_value_key(key)) & mask;
    for (; slots_[slot] >= 0; slot = (slot + 1) & mask) {
      const TupleIndex held = slots_[slot];
      if (value_key(out[static_cast<std::size_t>(held)]) == key) return held;
    }
    slots_[slot] = next;
    return next;
  }

 private:
  std::vector<TupleIndex> slots_;
};

/// The forward sweep. A value-producing tuple's value number is the index
/// of the output tuple that computes its value: rules first, then the
/// value table, which hands back an equal earlier tuple or admits this
/// one. Loads go through a per-variable current-value map instead, since
/// a Store changes what a Load of its variable reads.
std::vector<Tuple> local_value_numbering(const BasicBlock& block) {
  std::vector<Tuple> out;
  out.reserve(block.size());
  std::vector<TupleIndex> number(block.size(), -1);
  ValueTable table(block.size());
  // Per variable: the value number of what it holds, -1 when unknown.
  std::vector<TupleIndex> current(block.var_count(), -1);
  const auto numbered = [&](const Operand& o) {
    if (!o.is_ref()) return o;
    return Operand::of_ref(number[static_cast<std::size_t>(o.ref)]);
  };

  for (std::size_t i = 0; i < block.size(); ++i) {
    const Tuple& in = block.tuple(static_cast<TupleIndex>(i));
    Tuple t{in.op, numbered(in.a), numbered(in.b)};
    const auto next = static_cast<TupleIndex>(out.size());
    if (t.op == Opcode::Store) {
      // A stored immediate has no value number: the next Load stays.
      current[static_cast<std::size_t>(t.a.var)] =
          t.b.is_ref() ? t.b.ref : -1;
      out.push_back(t);
      continue;
    }
    if (t.op == Opcode::Load) {
      TupleIndex& value = current[static_cast<std::size_t>(t.a.var)];
      if (value < 0) {
        value = next;
        out.push_back(t);
      }
      number[i] = value;
      continue;
    }
    while (simplify(t, out)) {
    }
    if (t.op == Opcode::Mov) {  // of a ref: a Mov of an immediate folds
      number[i] = t.a.ref;
      continue;
    }
    number[i] = table.find_or_add(value_key(t), next, out);
    if (number[i] == next) out.push_back(t);
  }
  return out;
}

/// Drops from `tuples`, in place, every tuple whose value no live tuple
/// uses and every Store that neither block exit nor a live Load observes,
/// renumbering the survivors' refs; returns whether any tuple went. One
/// backward sweep marks, one forward sweep compacts, and the vector ends
/// with no spare capacity.
bool sweep_dead_code(std::vector<Tuple>& tuples, std::size_t var_count) {
  const std::size_t n = tuples.size();
  // Per tuple: 1 when live, 0 when dead, until the forward sweep
  // overwrites a live tuple's entry with its index in the output.
  std::vector<TupleIndex> index(n, 0);
  // Per variable: whether block exit or a live Load reads the value it
  // holds at this point of the backward sweep.
  std::vector<char> observed(var_count, 1);
  for (std::size_t ri = n; ri-- > 0;) {
    const Tuple& t = tuples[ri];
    if (t.op == Opcode::Store) {
      const auto var = static_cast<std::size_t>(t.a.var);
      index[ri] = observed[var];
      observed[var] = 0;
    } else if (t.op == Opcode::Load && index[ri] != 0) {
      observed[static_cast<std::size_t>(t.a.var)] = 1;
    }
    if (index[ri] == 0) continue;
    // References point backward, so every user is already decided.
    for (const Operand* o : {&t.a, &t.b}) {
      if (o->is_ref()) index[static_cast<std::size_t>(o->ref)] = 1;
    }
  }

  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (index[i] == 0) continue;
    Tuple t = tuples[i];
    for (Operand* o : {&t.a, &t.b}) {
      if (o->is_ref()) o->ref = index[static_cast<std::size_t>(o->ref)];
    }
    index[i] = static_cast<TupleIndex>(kept);
    tuples[kept++] = t;
  }
  tuples.resize(kept);
  tuples.shrink_to_fit();
  return kept < n;
}

}  // namespace

PassResult dead_code_elimination(const BasicBlock& block) {
  std::vector<Tuple> tuples = block.tuples();
  const bool changed = sweep_dead_code(tuples, block.var_count());
  return {block.with_tuples(std::move(tuples)), changed};
}

PassResult reassociation(const BasicBlock& block) {
  const std::size_t n = block.size();

  // Per-tuple reference counts and (single) user identity.
  std::vector<int> use_count(n, 0);
  std::vector<TupleIndex> single_user(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const Tuple& t = block.tuple(static_cast<TupleIndex>(i));
    for (const Operand* o : {&t.a, &t.b}) {
      if (!o->is_ref()) continue;
      const auto ref = static_cast<std::size_t>(o->ref);
      ++use_count[ref];
      single_user[ref] = static_cast<TupleIndex>(i);
    }
  }

  const auto assoc_op = [&](TupleIndex i) -> std::optional<Opcode> {
    const Opcode op = block.tuple(i).op;
    if (op == Opcode::Add || op == Opcode::Mul) return op;
    return std::nullopt;
  };

  // A tuple folds into its parent when the parent is the sole user and
  // applies the same associative op.
  const auto absorbed = [&](TupleIndex i) {
    const auto op = assoc_op(i);
    if (!op) return false;
    const auto index = static_cast<std::size_t>(i);
    if (use_count[index] != 1) return false;
    const TupleIndex user = single_user[index];
    return assoc_op(user) == op;
  };

  BlockRewriter rw(block);
  for (std::size_t i = 0; i < n; ++i) {
    const auto index = static_cast<TupleIndex>(i);
    const auto op = assoc_op(index);
    if (!op || absorbed(index)) {
      rw.keep(index);  // interior nodes go dead once the root is rebuilt
      continue;
    }

    // Maximal tree root: gather leaves left-to-right.
    std::vector<Operand> leaves;
    const auto collect = [&](auto&& self, const Operand& o) -> void {
      if (o.is_ref() && assoc_op(o.ref) == op && absorbed(o.ref)) {
        const Tuple& t = block.tuple(o.ref);
        self(self, t.a);
        self(self, t.b);
        return;
      }
      leaves.push_back(o);
    };
    const Tuple& root = block.tuple(index);
    collect(collect, root.a);
    collect(collect, root.b);

    if (leaves.size() < 3) {
      rw.keep(index);
      continue;
    }

    // Resolve leaves into NEW space and combine pairwise, tournament
    // style: height ceil(log2(#leaves)) instead of #leaves - 1.
    std::vector<Operand> level;
    for (const Operand& leaf : leaves) {
      if (leaf.is_ref()) {
        level.push_back(Operand::of_ref(rw.resolve_new(leaf.ref)));
      } else {
        level.push_back(leaf);
      }
    }
    while (level.size() > 1) {
      std::vector<Operand> next;
      for (std::size_t k = 0; k + 1 < level.size(); k += 2) {
        next.push_back(
            Operand::of_ref(rw.emit_new(Tuple{*op, level[k], level[k + 1]})));
      }
      if (level.size() % 2) next.push_back(level.back());
      level = std::move(next);
    }
    PS_ASSERT(level.front().is_ref());
    rw.alias_new(index, level.front().ref);
  }
  const bool changed = rw.changed();
  return {rw.finish(), changed};
}

BasicBlock run_standard_pipeline(const BasicBlock& block) {
  std::vector<Tuple> tuples = local_value_numbering(block);
  sweep_dead_code(tuples, block.var_count());
  return block.with_tuples(std::move(tuples));
}

}  // namespace pipesched
