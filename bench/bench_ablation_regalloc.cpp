// Register-allocation ordering ablation (the paper's Section 1, claim #1):
// scheduling *before* register allocation avoids the artificial anti
// dependences a postpass scheduler inherits from register reuse.
//
// For each block we compare the optimal schedule of
//   (a) the free DAG (allocate afterwards — the paper's design), against
//   (b) the DAG augmented with false dependences from an allocation
//       computed on the original order with K registers assigned
//       round-robin (temporaries cycle through the file, as typical code
//       generators do — a larger file then delays reuse),
// for K = MAXLIVE (tightest legal file), MAXLIVE+2, and MAXLIVE+4.
#include <iostream>

#include "bench_common.hpp"
#include "ir/dag.hpp"
#include "regalloc/regalloc.hpp"
#include "sched/optimal_scheduler.hpp"
#include "util/stats.hpp"

int main() {
  using namespace pipesched;
  bench::banner("Schedule-Then-Allocate Vs. Allocate-Then-Schedule",
                "Section 1, claim #1");

  const int runs = bench::corpus_runs(2000);
  CorpusSpec spec;
  spec.total_runs = runs;
  const auto params = corpus_params(spec);
  const Machine machine = Machine::risc_classic();

  SearchConfig config;
  config.curtail_lambda = 20000;

  Accumulator free_nops;
  std::vector<std::pair<int, Accumulator>> constrained = {
      {0, {}}, {2, {}}, {4, {}}};
  Accumulator maxlive;

  for (const GeneratorParams& p : params) {
    const BasicBlock block = generate_block(p);
    if (block.empty()) continue;
    std::vector<TupleIndex> original(block.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
      original[i] = static_cast<TupleIndex>(i);
    }
    const auto ranges = compute_live_ranges(block, original);
    const int live = std::max(1, max_live(ranges));
    maxlive.add(live);

    const DepGraph free_dag(block);
    const int base =
        optimal_schedule(machine, free_dag, config).schedule.total_nops();
    free_nops.add(base);

    for (auto& [extra, acc] : constrained) {
      const Allocation alloc = linear_scan(block, original, live + extra,
                                           AllocPolicy::RoundRobin);
      const DepGraph dag(block, false_dependence_edges(block, alloc));
      acc.add(optimal_schedule(machine, dag, config).schedule.total_nops());
    }
  }

  CsvWriter csv("ablation_regalloc.csv");
  csv.row({"variant", "avg_final_nops", "overhead_vs_free_pct"});
  std::cout << "machine " << machine.name() << ", " << free_nops.count()
            << " blocks, mean MAXLIVE " << compact_double(maxlive.mean(), 3)
            << "\n\n";
  std::cout << pad_right("variant", 34) << pad_left("avg final NOPs", 16)
            << pad_left("vs. free", 12) << "\n";
  const auto emit = [&](const std::string& name, double nops) {
    const double overhead =
        free_nops.mean() > 0
            ? 100.0 * (nops - free_nops.mean()) / free_nops.mean()
            : 0.0;
    std::cout << pad_right(name, 34) << pad_left(compact_double(nops, 4), 16)
              << pad_left(std::string("+")
                              .append(compact_double(overhead, 3))
                              .append("%"),
                          12)
              << "\n";
    csv.row_of(name, nops, overhead);
  };
  emit("schedule first (paper)", free_nops.mean());
  for (const auto& [extra, acc] : constrained) {
    emit("allocate first, K = MAXLIVE+" + std::to_string(extra), acc.mean());
  }
  std::cout << "\nCSV written to ablation_regalloc.csv\n";
  return 0;
}
