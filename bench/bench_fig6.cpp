// Figure 6 reproduction: average scheduling runtime vs. block size.
//
// The paper reports ~0.1s per typical block on a Sun 3/50 ("about 100
// typical blocks per second" overall); modern hardware is ~4 orders of
// magnitude faster, so we report microseconds — the *shape* (flat for
// common sizes, rising for the largest, curtail-bounded blocks) is the
// reproduced result.
#include <iostream>

#include "bench_common.hpp"
#include "util/ascii_chart.hpp"

int main() {
  using namespace pipesched;
  bench::banner("Runtime Vs. Block Size", "Figure 6");

  const int runs = bench::corpus_runs();
  CorpusRunOptions options = bench::paper_run_options();
  options.threads = 1;  // per-block timing must not fight for the core
  const std::vector<RunRecord> records =
      bench::run_paper_corpus(runs, options);

  GroupedStats micros;
  for (const RunRecord& r : records) {
    if (r.block_size == 0) continue;
    micros.add(r.block_size, r.stats.seconds * 1e6);
  }

  ChartOptions chart;
  chart.title = "mean search time (microseconds, log) vs block size";
  chart.x_label = "instructions per block";
  chart.y_label = "microseconds";
  chart.log_y = true;
  std::cout << render_line(micros, chart) << "\n";

  CsvWriter csv("fig6.csv");
  csv.row({"block_size", "runs", "avg_micros", "max_micros"});
  std::cout << pad_left("n", 5) << pad_left("runs", 8)
            << pad_left("avg us", 12) << pad_left("max us", 12) << "\n";
  for (const auto& [size, acc] : micros.groups()) {
    csv.row_of(size, acc.count(), acc.mean(), acc.max());
    if (size % 4 == 0) {
      std::cout << pad_left(std::to_string(size), 5)
                << pad_left(std::to_string(acc.count()), 8)
                << pad_left(compact_double(acc.mean(), 4), 12)
                << pad_left(compact_double(acc.max(), 4), 12) << "\n";
    }
  }
  std::cout << "CSV written to fig6.csv\n";
  return 0;
}
