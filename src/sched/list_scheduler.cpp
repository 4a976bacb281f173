#include "sched/list_scheduler.hpp"

#include <algorithm>
#include <cstdint>

#include "util/check.hpp"

namespace pipesched {

std::vector<TupleIndex> list_schedule_order(const DepGraph& dag) {
  const std::size_t n = dag.size();
  std::vector<int> unplaced_preds(n);
  for (std::size_t i = 0; i < n; ++i) {
    unplaced_preds[i] =
        static_cast<int>(dag.preds(static_cast<TupleIndex>(i)).size());
  }

  // Ready list kept sorted lazily: with blocks of a few dozen instructions a
  // linear scan per pick is faster than a heap and keeps ties deterministic.
  std::vector<TupleIndex> ready;
  ready.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (unplaced_preds[i] == 0) ready.push_back(static_cast<TupleIndex>(i));
  }

  // Rank key: height above descendant count, so a larger key is better;
  // ties go to the lower tuple index.
  std::vector<std::uint64_t> key(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto index = static_cast<TupleIndex>(i);
    key[i] = static_cast<std::uint64_t>(dag.height(index)) << 32 |
             dag.descendants(index).count();
  }
  auto better = [&](TupleIndex a, TupleIndex b) {
    const std::uint64_t ka = key[static_cast<std::size_t>(a)];
    const std::uint64_t kb = key[static_cast<std::size_t>(b)];
    return ka != kb ? ka > kb : a < b;
  };

  std::vector<TupleIndex> order;
  order.reserve(n);
  while (!ready.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < ready.size(); ++i) {
      if (better(ready[i], ready[best])) best = i;
    }
    const TupleIndex chosen = ready[best];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best));
    order.push_back(chosen);
    for (TupleIndex s : dag.succs(chosen)) {
      if (--unplaced_preds[static_cast<std::size_t>(s)] == 0) {
        ready.push_back(s);
      }
    }
  }
  PS_ASSERT(order.size() == n);
  return order;
}

Schedule list_schedule(const Machine& machine, const DepGraph& dag,
                       const PipelineState& initial) {
  return evaluate_order(machine, dag, list_schedule_order(dag), initial);
}

}  // namespace pipesched
