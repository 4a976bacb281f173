// Figure 1 reproduction: schedules searched vs. block size for the runs
// that completed (terminated on condition [1], provably optimal).
//
// The paper plots one point per completed run on a log axis; the spread
// grows with block size but stays far below the factorial envelope.
#include <iostream>

#include "bench_common.hpp"
#include "util/ascii_chart.hpp"

int main() {
  using namespace pipesched;
  bench::banner("Schedules Searched Vs. Block Size (Completed Runs)",
                "Figure 1");

  const int runs = bench::corpus_runs();
  const std::vector<RunRecord> records =
      bench::run_paper_corpus(runs, bench::paper_run_options());

  std::vector<ChartPoint> points;
  GroupedStats by_size;
  std::size_t completed = 0;
  CsvWriter csv("fig1.csv");
  csv.row({"block_size", "omega_calls"});
  for (const RunRecord& r : records) {
    if (r.stats.outcome() != SearchOutcome::Optimal || r.block_size == 0) {
      continue;
    }
    ++completed;
    points.push_back({static_cast<double>(r.block_size),
                      static_cast<double>(r.stats.omega_calls)});
    by_size.add(r.block_size, static_cast<double>(r.stats.omega_calls));
    csv.row_of(r.block_size, r.stats.omega_calls);
  }

  ChartOptions options;
  options.title = "placements examined (log) vs block size, " +
                  std::to_string(completed) + " complete runs";
  options.x_label = "instructions per block";
  options.y_label = "omega calls";
  options.log_y = true;
  std::cout << render_scatter(points, options) << "\n";

  std::cout << "mean omega calls by block size (sample):\n";
  int shown = 0;
  for (const auto& [size, acc] : by_size.groups()) {
    if (size % 5 != 0) continue;
    std::cout << "  n=" << size << ": mean "
              << compact_double(acc.mean(), 4) << ", max "
              << compact_double(acc.max(), 4) << " (" << acc.count()
              << " runs)\n";
    if (++shown >= 10) break;
  }
  std::cout << "CSV written to fig1.csv\n";
  return 0;
}
