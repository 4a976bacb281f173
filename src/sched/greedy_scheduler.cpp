#include "sched/greedy_scheduler.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace pipesched {

Schedule greedy_schedule(const Machine& machine, const DepGraph& dag,
                         const PipelineState& initial) {
  const std::size_t n = dag.size();
  PipelineTimer timer(machine, dag, initial);

  std::vector<int> unplaced_preds(n);
  std::vector<TupleIndex> ready;
  for (std::size_t i = 0; i < n; ++i) {
    unplaced_preds[i] =
        static_cast<int>(dag.preds(static_cast<TupleIndex>(i)).size());
    if (unplaced_preds[i] == 0) ready.push_back(static_cast<TupleIndex>(i));
  }

  while (!ready.empty()) {
    // Probe each ready instruction for the NOPs it would need now.
    std::size_t best = 0;
    int best_eta = 0;
    for (std::size_t i = 0; i < ready.size(); ++i) {
      const int eta = timer.push(ready[i]);
      timer.pop();
      const bool wins = i == 0 || eta < best_eta ||
                        (eta == best_eta &&
                         (dag.height(ready[i]) > dag.height(ready[best]) ||
                          (dag.height(ready[i]) == dag.height(ready[best]) &&
                           ready[i] < ready[best])));
      if (wins) {
        best = i;
        best_eta = eta;
      }
    }
    const TupleIndex chosen = ready[best];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best));
    timer.push(chosen);
    for (TupleIndex s : dag.succs(chosen)) {
      if (--unplaced_preds[static_cast<std::size_t>(s)] == 0) {
        ready.push_back(s);
      }
    }
  }
  PS_ASSERT(timer.depth() == n);
  return timer.snapshot();
}

}  // namespace pipesched
