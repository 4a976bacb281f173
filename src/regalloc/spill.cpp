#include "regalloc/spill.hpp"

#include <algorithm>
#include <string>

#include "regalloc/regalloc.hpp"
#include "util/check.hpp"

namespace pipesched {

namespace {

/// Spills after which insert_spill_code gives up.
constexpr int kMaxSpills = 10000;

/// Per original tuple: the readers of its value (a range of `users`,
/// from the first not yet passed), the live value that holds it now, and
/// the reloads due right before the tuple, in the order they were made.
struct Site {
  int next_user = 0;
  int end_user = 0;
  int holder = -1;
  int first_reload = -1;
  int last_reload = -1;
};

/// One value of the block as spilled: original tuple t is value t, and
/// the reload made by spill k is value n + k, which loads slot .s<k>.
struct Value {
  TupleIndex orig = -1;  ///< the original tuple whose value this is
  int rank = -1;         ///< definition order: Belady's tie-break
  int live_at = -1;      ///< index in the live set, -1 when not live
  int slot = -1;         ///< k when spill k stored this value to .s<k>
  int next_reload = -1;  ///< a reload: the next one due before its user
  int out = -1;          ///< index in the output block
};

}  // namespace

int block_max_live(const BasicBlock& block) {
  if (block.empty()) return 0;
  std::vector<TupleIndex> order(block.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<TupleIndex>(i);
  }
  return max_live(compute_live_ranges(block, order));
}

SpillResult insert_spill_code(const BasicBlock& block, int max_live_target) {
  PS_CHECK(max_live_target >= 3,
           "spill insertion needs a target of at least 3 registers "
           "(two operands plus a result)");
  const std::size_t n = block.size();
  const auto refs = [](const Tuple& t, auto&& visit) {
    if (t.a.is_ref()) visit(t.a.ref);
    if (t.b.is_ref()) visit(t.b.ref);
  };

  // Readers of each value, ascending, in one array.
  std::vector<Site> site(n);
  std::size_t uses = 0;
  for (const Tuple& t : block.tuples()) {
    refs(t, [&](TupleIndex r) {
      ++site[static_cast<std::size_t>(r)].end_user;
      ++uses;
    });
  }
  int offset = 0;
  for (Site& s : site) {
    const int count = s.end_user;
    s.next_user = s.end_user = offset;
    offset += count;
  }
  std::vector<TupleIndex> users(uses);
  for (std::size_t i = 0; i < n; ++i) {
    refs(block.tuple(static_cast<TupleIndex>(i)), [&](TupleIndex r) {
      users[static_cast<std::size_t>(
          site[static_cast<std::size_t>(r)].end_user++)] =
          static_cast<TupleIndex>(i);
    });
  }

  // Each spill's reload serves a distinct (value, next reader) pair, so
  // `uses` bounds the reloads.
  std::vector<Value> values(n);
  values.reserve(n + uses);
  for (std::size_t t = 0; t < n; ++t) {
    values[t].orig = static_cast<TupleIndex>(t);
  }
  const auto value = [&](int v) -> Value& {
    return values[static_cast<std::size_t>(v)];
  };
  const auto site_of = [&](TupleIndex t) -> Site& {
    return site[static_cast<std::size_t>(t)];
  };
  std::vector<int> live;
  live.reserve(std::min(static_cast<std::size_t>(max_live_target) + 1,
                        n + uses));
  const auto add_live = [&](int v) {
    value(v).live_at = static_cast<int>(live.size());
    live.push_back(v);
  };
  const auto drop_live = [&](int v) {
    int& at = value(v).live_at;
    if (at < 0) return;
    const int moved = live.back();
    live[static_cast<std::size_t>(at)] = moved;
    value(moved).live_at = at;
    live.pop_back();
    at = -1;
  };

  // One sweep in block order over every tuple and every reload, each at
  // its place in the block as spilled so far. A spill never raises the
  // pressure before the point it fixes (its store follows the victim's
  // definition, its reload comes after the point), so this visits the
  // over-pressure points in the order a rescan after each spill would
  // find them, and makes the same choices.
  std::size_t t = 0;  ///< the original tuple at or before the point
  int spills = 0;
  int reloads_placed = 0;
  int rank = 0;
  // While more than max_live_target values are live at this point, spill
  // the one not read here whose next read is farthest away (Belady),
  // the earliest defined among ties: store it to .s<k> right after its
  // definition and reload it right before that next read.
  const auto relieve = [&](int pressure, int read_a, int read_b) {
    for (; pressure > max_live_target; --pressure) {
      int victim = -1;
      TupleIndex victim_next = -1;
      for (const int v : live) {
        if (v == read_a || v == read_b) continue;
        const TupleIndex next = users[static_cast<std::size_t>(
            site_of(value(v).orig).next_user)];
        if (next > victim_next ||
            (next == victim_next && value(v).rank < value(victim).rank)) {
          victim = v;
          victim_next = next;
        }
      }
      // The point's index in the block as spilled so far: every store
      // made and every reload placed so far lies before it.
      const std::size_t position =
          t + static_cast<std::size_t>(spills + reloads_placed);
      PS_CHECK(victim >= 0,
               "cannot reduce register pressure below "
                   << max_live_target << " at position " << position + 1
                   << " (every live value is used there)");
      drop_live(victim);
      value(victim).slot = spills;
      const auto reload = static_cast<int>(values.size());
      Value loaded;
      loaded.orig = value(victim).orig;
      values.push_back(loaded);
      Site& reader = site_of(victim_next);
      if (reader.last_reload < 0) {
        reader.first_reload = reload;
      } else {
        value(reader.last_reload).next_reload = reload;
      }
      reader.last_reload = reload;
      if (++spills == kMaxSpills) {
        throw Error("spill insertion did not converge");
      }
    }
  };

  for (; t < n; ++t) {
    // A spill at one of these reloads may append another.
    for (int r = site[t].first_reload; r >= 0; r = value(r).next_reload) {
      relieve(static_cast<int>(live.size()) + 1, -1, -1);
      value(r).rank = rank++;
      site_of(value(r).orig).holder = r;
      add_live(r);
      ++reloads_placed;
    }
    const Tuple& tuple = block.tuple(static_cast<TupleIndex>(t));
    const auto holder = [&](const Operand& o) {
      return o.is_ref() ? site_of(o.ref).holder : -1;
    };
    const bool defines = opcode_has_result(tuple.op);
    relieve(static_cast<int>(live.size()) + (defines ? 1 : 0),
            holder(tuple.a), holder(tuple.b));
    // Pass this reader of each operand; a value read for the last time
    // dies here.
    refs(tuple, [&](TupleIndex r) {
      Site& s = site_of(r);
      while (s.next_user < s.end_user &&
             users[static_cast<std::size_t>(s.next_user)] <=
                 static_cast<TupleIndex>(t)) {
        ++s.next_user;
      }
      if (s.next_user == s.end_user) drop_live(s.holder);
    });
    if (!defines) continue;
    values[t].rank = rank++;
    site[t].holder = static_cast<int>(t);
    if (site[t].next_user < site[t].end_user) add_live(static_cast<int>(t));
  }

  SpillResult result;
  result.values_spilled = spills;
  if (spills == 0) {
    result.block = block;
    return result;
  }

  // Build the output once: each reload before its reader, each spill
  // store right after the value it saves. Slots are interned in spill
  // order after the block's own variables.
  result.block = block.with_tuples({});
  result.block.reserve_vars(block.var_count() +
                            static_cast<std::size_t>(spills));
  std::vector<VarId> slot_var(static_cast<std::size_t>(spills));
  for (int k = 0; k < spills; ++k) {
    slot_var[static_cast<std::size_t>(k)] =
        result.block.var_id(std::string(".s").append(std::to_string(k)));
  }
  std::vector<Tuple> out;
  out.reserve(n + 2 * static_cast<std::size_t>(spills));
  const auto place = [&](int v, const Tuple& tuple) {
    Value& placed = value(v);
    placed.out = static_cast<int>(out.size());
    out.push_back(tuple);
    site_of(placed.orig).holder = v;
    if (placed.slot < 0) return;
    out.push_back(Tuple{
        Opcode::Store,
        Operand::of_var(slot_var[static_cast<std::size_t>(placed.slot)]),
        Operand::of_ref(placed.out)});
  };
  for (t = 0; t < n; ++t) {
    for (int r = site[t].first_reload; r >= 0; r = value(r).next_reload) {
      const VarId slot = slot_var[static_cast<std::size_t>(r) - n];
      place(r, Tuple{Opcode::Load, Operand::of_var(slot), Operand::none()});
    }
    Tuple tuple = block.tuple(static_cast<TupleIndex>(t));
    for (Operand* o : {&tuple.a, &tuple.b}) {
      if (o->is_ref()) o->ref = value(site_of(o->ref).holder).out;
    }
    if (opcode_has_result(tuple.op)) {
      place(static_cast<int>(t), tuple);
    } else {
      out.push_back(tuple);
    }
  }
  result.block.replace_tuples(std::move(out));
  return result;
}

}  // namespace pipesched
