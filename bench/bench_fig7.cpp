// Figure 7 reproduction: percentage of runs that found provably optimal
// schedules (search not curtailed by lambda) vs. block size.
//
// Paper shape: essentially 100% for blocks under ~20 instructions,
// declining for the largest blocks at a fixed curtail point.
#include <iostream>

#include "bench_common.hpp"
#include "util/ascii_chart.hpp"

int main() {
  using namespace pipesched;
  bench::banner("Percentage of Optimal Runs Vs. Block Size", "Figure 7");

  const int runs = bench::corpus_runs();
  const std::vector<RunRecord> records =
      bench::run_paper_corpus(runs, bench::paper_run_options());

  GroupedStats optimal_pct;
  for (const RunRecord& r : records) {
    if (r.block_size == 0) continue;
    optimal_pct.add(
        r.block_size,
        r.stats.outcome() == SearchOutcome::Optimal ? 100.0 : 0.0);
  }

  ChartOptions chart;
  chart.title = "% runs provably optimal vs block size";
  chart.x_label = "instructions per block";
  chart.y_label = "% optimal";
  std::cout << render_line(optimal_pct, chart) << "\n";

  CsvWriter csv("fig7.csv");
  csv.row({"block_size", "runs", "percent_optimal"});
  std::cout << pad_left("n", 5) << pad_left("runs", 8)
            << pad_left("% optimal", 12) << "\n";
  for (const auto& [size, acc] : optimal_pct.groups()) {
    csv.row_of(size, acc.count(), acc.mean());
    if (size % 4 == 0) {
      std::cout << pad_left(std::to_string(size), 5)
                << pad_left(std::to_string(acc.count()), 8)
                << pad_left(compact_double(acc.mean(), 4), 12) << "\n";
    }
  }
  std::cout << "CSV written to fig7.csv\n";
  return 0;
}
