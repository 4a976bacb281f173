#include "regalloc/regalloc.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "util/check.hpp"

namespace pipesched {

namespace {

/// The free registers under one policy. LowestFree takes the lowest set
/// bit of a bitset. RoundRobin takes the head of a FIFO ring, so a freed
/// register goes to the back of the line and the whole file cycles before
/// any reuse.
class FreeRegisters {
 public:
  FreeRegisters(int count, AllocPolicy policy)
      : round_robin_(policy == AllocPolicy::RoundRobin),
        size_(static_cast<std::size_t>(count)) {
    if (round_robin_) {
      ring_.resize(size_);
      std::iota(ring_.begin(), ring_.end(), 0);
    } else {
      bits_.assign((size_ + 63) / 64, ~std::uint64_t{0});
      if (size_ % 64 != 0) bits_.back() >>= 64 - size_ % 64;
    }
  }

  bool empty() const { return size_ == 0; }

  int take() {
    PS_ASSERT(size_ > 0);
    --size_;
    if (round_robin_) {
      const int reg = ring_[head_];
      head_ = (head_ + 1) % ring_.size();
      return reg;
    }
    std::size_t w = 0;
    while (bits_[w] == 0) ++w;
    const int bit = __builtin_ctzll(bits_[w]);
    bits_[w] &= bits_[w] - 1;
    return static_cast<int>(w * 64) + bit;
  }

  void give(int reg) {
    if (round_robin_) {
      ring_[(head_ + size_) % ring_.size()] = reg;
    } else {
      bits_[static_cast<std::size_t>(reg) >> 6] |= std::uint64_t{1}
                                                   << (reg & 63);
    }
    ++size_;
  }

 private:
  bool round_robin_;
  std::size_t size_;  ///< free registers
  std::size_t head_ = 0;
  std::vector<int> ring_;
  std::vector<std::uint64_t> bits_;
};

}  // namespace

std::vector<LiveRange> compute_live_ranges(
    const BasicBlock& block, const std::vector<TupleIndex>& order) {
  PS_CHECK(order.size() == block.size(), "order does not cover the block");
  // range_of[t]: index of tuple t's range; -2 until t is placed, -1 when t
  // has no result.
  std::vector<int> range_of(block.size(), -2);
  std::vector<LiveRange> ranges;
  ranges.reserve(order.size());
  for (std::size_t p = 0; p < order.size(); ++p) {
    const TupleIndex t = order[p];
    PS_CHECK(t >= 0 && static_cast<std::size_t>(t) < block.size() &&
                 range_of[static_cast<std::size_t>(t)] == -2,
             "order is not a permutation");
    if (!opcode_has_result(block.tuple(t).op)) {
      range_of[static_cast<std::size_t>(t)] = -1;
      continue;
    }
    range_of[static_cast<std::size_t>(t)] = static_cast<int>(ranges.size());
    ranges.push_back({t, static_cast<int>(p), static_cast<int>(p)});
  }

  // Extend each range to its last reader's position.
  for (std::size_t p = 0; p < order.size(); ++p) {
    const Tuple& t = block.tuple(order[p]);
    for (const Operand* o : {&t.a, &t.b}) {
      if (!o->is_ref()) continue;
      const int k = range_of[static_cast<std::size_t>(o->ref)];
      PS_ASSERT(k >= 0);
      LiveRange& r = ranges[static_cast<std::size_t>(k)];
      r.last_use_pos = std::max(r.last_use_pos, static_cast<int>(p));
    }
  }
  return ranges;
}

int max_live(const std::vector<LiveRange>& ranges) {
  // Sweep positions: +1 at def, -1 after last use.
  int end = 0;
  for (const LiveRange& r : ranges) end = std::max(end, r.last_use_pos + 1);
  std::vector<int> delta(static_cast<std::size_t>(end) + 1, 0);
  for (const LiveRange& r : ranges) {
    ++delta[static_cast<std::size_t>(r.def_pos)];
    --delta[static_cast<std::size_t>(r.last_use_pos) + 1];
  }
  int live = 0;
  int best = 0;
  for (const int d : delta) {
    live += d;
    best = std::max(best, live);
  }
  return best;
}

Allocation linear_scan(const BasicBlock& block,
                       const std::vector<TupleIndex>& order,
                       int num_registers, AllocPolicy policy) {
  PS_CHECK(num_registers > 0, "need at least one register");
  const std::vector<LiveRange> ranges = compute_live_ranges(block, order);

  Allocation allocation;
  allocation.reg_of.assign(block.size(), -1);

  // Release order: a range frees its register before the first def after
  // its last use. Ranges come in def order, which is allocation order, so
  // a stable bucket sort by last use lists them by (last use, allocation
  // order), the order in which the expiry loop must free them.
  std::vector<int> by_last_use(ranges.size());
  {
    std::vector<int> bucket(order.size() + 1, 0);
    for (const LiveRange& r : ranges) {
      ++bucket[static_cast<std::size_t>(r.last_use_pos) + 1];
    }
    for (std::size_t p = 1; p < bucket.size(); ++p) bucket[p] += bucket[p - 1];
    for (std::size_t k = 0; k < ranges.size(); ++k) {
      by_last_use[static_cast<std::size_t>(
          bucket[static_cast<std::size_t>(ranges[k].last_use_pos)]++)] =
          static_cast<int>(k);
    }
  }

  FreeRegisters free_regs(num_registers, policy);

  std::size_t released = 0;
  int highest_used = -1;
  for (const LiveRange& range : ranges) {
    // Expire ranges whose value is dead before this def.
    while (released < by_last_use.size()) {
      const LiveRange& dead = ranges[static_cast<std::size_t>(
          by_last_use[released])];
      if (dead.last_use_pos >= range.def_pos) break;
      free_regs.give(allocation.reg_of[static_cast<std::size_t>(dead.tuple)]);
      ++released;
    }
    PS_CHECK(!free_regs.empty(),
             "register allocation requires spill code: block needs more than "
                 << num_registers << " registers (MAXLIVE = "
                 << max_live(ranges) << ")");
    const int reg = free_regs.take();
    allocation.reg_of[static_cast<std::size_t>(range.tuple)] = reg;
    highest_used = std::max(highest_used, reg);
  }
  allocation.registers_used = highest_used + 1;
  return allocation;
}

bool verify_allocation(const BasicBlock& block,
                       const std::vector<TupleIndex>& order,
                       const Allocation& allocation) {
  const std::vector<LiveRange> ranges = compute_live_ranges(block, order);
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const int ri = allocation.reg_of[static_cast<std::size_t>(ranges[i].tuple)];
    if (ri < 0) return false;
    for (std::size_t j = i + 1; j < ranges.size(); ++j) {
      const int rj =
          allocation.reg_of[static_cast<std::size_t>(ranges[j].tuple)];
      if (ri != rj) continue;
      const bool overlap = ranges[i].def_pos <= ranges[j].last_use_pos &&
                           ranges[j].def_pos <= ranges[i].last_use_pos;
      if (overlap) return false;
    }
  }
  return true;
}

std::vector<std::pair<TupleIndex, TupleIndex>> false_dependence_edges(
    const BasicBlock& block, const Allocation& allocation) {
  // Readers of each value, in original order.
  std::vector<std::vector<TupleIndex>> readers(block.size());
  for (std::size_t i = 0; i < block.size(); ++i) {
    const Tuple& t = block.tuple(static_cast<TupleIndex>(i));
    for (const Operand* o : {&t.a, &t.b}) {
      if (o->is_ref()) {
        readers[static_cast<std::size_t>(o->ref)].push_back(
            static_cast<TupleIndex>(i));
      }
    }
  }

  // Per register, defs in original order; consecutive defs A -> B impose
  // anti edges reader(A) -> B and A -> B.
  std::vector<std::pair<TupleIndex, TupleIndex>> edges;
  std::vector<TupleIndex> last_def(
      static_cast<std::size_t>(allocation.registers_used), -1);
  for (std::size_t i = 0; i < block.size(); ++i) {
    const int reg = allocation.reg_of[i];
    if (reg < 0) continue;
    const auto def = static_cast<TupleIndex>(i);
    const TupleIndex prev = last_def[static_cast<std::size_t>(reg)];
    if (prev >= 0) {
      edges.emplace_back(prev, def);
      for (TupleIndex reader : readers[static_cast<std::size_t>(prev)]) {
        if (reader < def) edges.emplace_back(reader, def);
      }
    }
    last_def[static_cast<std::size_t>(reg)] = def;
  }
  return edges;
}

}  // namespace pipesched
