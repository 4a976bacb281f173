// Pipeline-structure sensitivity (the paper's Section 6 "ongoing work
// examines performance using various (more complex) pipeline structures"):
// sweep the loader latency and the multiplier latency/enqueue
// independently and measure how much of the added latency the optimal
// scheduler hides.
//
// Metrics per configuration: mean initial (list) NOPs, mean final NOPs,
// and the hidden fraction 1 - final/initial.
#include <iostream>

#include "bench_common.hpp"
#include "ir/dag.hpp"
#include "sched/optimal_scheduler.hpp"
#include "util/stats.hpp"

namespace {

using namespace pipesched;

Machine swept_machine(int load_latency, int mul_latency, int mul_enqueue) {
  Machine m("swept");
  m.add_pipeline("loader", load_latency, 1);
  m.add_pipeline("multiplier", mul_latency, mul_enqueue);
  m.map_op(Opcode::Load, "loader");
  m.map_op(Opcode::Mul, "multiplier");
  m.map_op(Opcode::Div, "multiplier");
  m.validate();
  return m;
}

}  // namespace

int main() {
  using namespace pipesched;
  bench::banner("Pipeline Parameter Sweep", "Section 6 ongoing work");

  const int runs = bench::corpus_runs(1200);
  CorpusSpec spec;
  spec.total_runs = runs;
  const auto params = corpus_params(spec);

  struct Config {
    int load_latency;
    int mul_latency;
    int mul_enqueue;
  };
  const Config configs[] = {
      {1, 4, 2}, {2, 4, 2},  // paper point
      {4, 4, 2}, {6, 4, 2}, {8, 4, 2},   // deeper memory
      {2, 2, 1}, {2, 8, 2}, {2, 12, 3},  // deeper multiplier
      {2, 4, 4},                          // non-pipelined multiplier
  };

  CsvWriter csv("latency_sweep.csv");
  csv.row({"load_latency", "mul_latency", "mul_enqueue",
           "avg_initial_nops", "avg_final_nops", "pct_hidden",
           "pct_completed"});
  std::cout << pad_left("ld lat", 8) << pad_left("mul lat", 9)
            << pad_left("mul enq", 9) << pad_left("initial", 10)
            << pad_left("final", 8) << pad_left("% hidden", 10)
            << pad_left("% complete", 12) << "\n";

  for (const Config& config : configs) {
    const Machine machine = swept_machine(
        config.load_latency, config.mul_latency, config.mul_enqueue);
    Accumulator initial;
    Accumulator final_nops;
    Accumulator completed;
    for (const GeneratorParams& p : params) {
      const BasicBlock block = generate_block(p);
      if (block.empty()) continue;
      const DepGraph dag(block);
      SearchConfig search;
      search.curtail_lambda = 20000;
      search.lower_bound_prune = true;
      const ScheduleResult result = optimal_schedule(machine, dag, search);
      initial.add(result.stats.initial_nops);
      final_nops.add(result.stats.best_nops);
      completed.add(result.stats.completed ? 100 : 0);
    }
    const double hidden =
        initial.mean() > 0
            ? 100.0 * (1.0 - final_nops.mean() / initial.mean())
            : 100.0;
    std::cout << pad_left(std::to_string(config.load_latency), 8)
              << pad_left(std::to_string(config.mul_latency), 9)
              << pad_left(std::to_string(config.mul_enqueue), 9)
              << pad_left(compact_double(initial.mean(), 4), 10)
              << pad_left(compact_double(final_nops.mean(), 3), 8)
              << pad_left(compact_double(hidden, 4), 10)
              << pad_left(compact_double(completed.mean(), 4), 12) << "\n";
    csv.row_of(config.load_latency, config.mul_latency, config.mul_enqueue,
               initial.mean(), final_nops.mean(), hidden, completed.mean());
  }
  std::cout << "\nCSV written to latency_sweep.csv\n";
  return 0;
}
