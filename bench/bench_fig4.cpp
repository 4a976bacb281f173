// Figure 4 reproduction: initial and final NOPs vs. block size.
//
// The paper's observation: initial (list-schedule) NOPs grow linearly with
// block size, while final (optimal) NOPs stay nearly constant — the
// scheduler hides almost all pipeline latency regardless of block length.
#include <iostream>

#include "bench_common.hpp"
#include "util/ascii_chart.hpp"

int main() {
  using namespace pipesched;
  bench::banner("Initial and Final NOPs Vs. Block Size", "Figure 4");

  const int runs = bench::corpus_runs();
  const std::vector<RunRecord> records =
      bench::run_paper_corpus(runs, bench::paper_run_options());

  GroupedStats initial;
  GroupedStats final_nops;
  for (const RunRecord& r : records) {
    if (r.block_size == 0) continue;
    initial.add(r.block_size, r.stats.initial_nops);
    final_nops.add(r.block_size, r.stats.best_nops);
  }

  ChartOptions options;
  options.title = "mean NOPs vs block size";
  options.x_label = "instructions per block";
  options.y_label = "NOPs";
  std::cout << render_lines({{"initial (list schedule)", initial},
                             {"final (optimal)", final_nops}},
                            options)
            << "\n";

  CsvWriter csv("fig4.csv");
  csv.row({"block_size", "runs", "avg_initial_nops", "avg_final_nops"});
  std::cout << pad_left("n", 5) << pad_left("runs", 8)
            << pad_left("avg initial", 14) << pad_left("avg final", 12)
            << "\n";
  for (const auto& [size, acc] : initial.groups()) {
    const auto& fin = final_nops.groups().at(size);
    csv.row_of(size, acc.count(), acc.mean(), fin.mean());
    if (size % 4 == 0) {
      std::cout << pad_left(std::to_string(size), 5)
                << pad_left(std::to_string(acc.count()), 8)
                << pad_left(compact_double(acc.mean(), 3), 14)
                << pad_left(compact_double(fin.mean(), 3), 12) << "\n";
    }
  }
  std::cout << "CSV written to fig4.csv\n";
  return 0;
}
