// Section 5.3 convergence experiment: for blocks whose search the curtail
// point truncates, raising lambda by 10x and 50x "did not cause the search
// to run to completion... however, neither did the best schedule change".
//
// We run paper_protocol() at a baseline lambda of 20,000, re-run each
// truncated block at 10x and 50x, and report how many improved and by
// how much.
#include <iostream>

#include "bench_common.hpp"
#include "ir/dag.hpp"
#include "sched/optimal_scheduler.hpp"
#include "util/stats.hpp"

int main() {
  using namespace pipesched;
  bench::banner("Curtailed-Search Convergence (lambda x10, x50)",
                "Section 5.3");

  const int runs = bench::corpus_runs(4000);
  constexpr std::uint64_t kBaseLambda = 20000;
  CorpusSpec spec;
  spec.total_runs = runs;
  const auto params = corpus_params(spec);

  CorpusRunOptions base = paper_protocol();
  base.search.curtail_lambda = kBaseLambda;
  const auto records = run_corpus(params, base);

  std::vector<std::size_t> truncated;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!records[i].stats.completed) truncated.push_back(i);
  }
  std::cout << "corpus: " << runs << " blocks at lambda = " << kBaseLambda
            << "; truncated searches: " << truncated.size() << "\n\n";

  CsvWriter csv("lambda.csv");
  csv.row({"block_index", "block_size", "nops_base", "nops_x10", "nops_x50",
           "completed_x50"});

  int improved_x10 = 0;
  int improved_x50 = 0;
  int completed_x50 = 0;
  Accumulator improvement;
  for (std::size_t index : truncated) {
    const BasicBlock block = generate_block(params[index]);
    const DepGraph dag(block);

    auto run_at = [&](std::uint64_t lambda) {
      SearchConfig config = base.search;
      config.curtail_lambda = lambda;
      return optimal_schedule(base.machine, dag, config);
    };
    const int nops_base = records[index].stats.best_nops;
    const ScheduleResult x10 = run_at(kBaseLambda * 10);
    const ScheduleResult x50 = run_at(kBaseLambda * 50);
    improved_x10 += x10.stats.best_nops < nops_base;
    improved_x50 += x50.stats.best_nops < nops_base;
    completed_x50 += x50.stats.completed;
    improvement.add(nops_base - x50.stats.best_nops);
    csv.row_of(index, records[index].block_size, nops_base,
               x10.stats.best_nops, x50.stats.best_nops,
               x50.stats.completed ? 1 : 0);
  }

  if (truncated.empty()) {
    std::cout << "every search completed at the baseline lambda; nothing to "
                 "re-run (increase corpus size or lower lambda)\n";
  } else {
    std::cout << "of " << truncated.size() << " truncated searches:\n"
              << "  improved by lambda x10: " << improved_x10 << "\n"
              << "  improved by lambda x50: " << improved_x50 << "\n"
              << "  ran to completion at x50: " << completed_x50 << "\n"
              << "  mean NOP improvement at x50: "
              << compact_double(improvement.mean(), 3)
              << " (paper: best schedule generally unchanged)\n";
  }
  std::cout << "CSV written to lambda.csv\n";
  return 0;
}
