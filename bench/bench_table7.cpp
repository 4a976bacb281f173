// Table 7 reproduction: statistics for scheduling the 16,000-block corpus
// with the branch-and-bound scheduler on the Tables 4-5 machine.
//
// Paper values for orientation (Sun 3/50, 1990):
//   completed runs 15,812 (98.83%), truncated 188 (1.17%);
//   avg instructions/block 20.50 (completed) / 32.28 (truncated);
//   avg initial NOPs 9.50 / 14.34; avg final NOPs 0.67 / 4.03;
//   avg Omega calls 427.4 / 54,150; avg time ~0.1s / ~15s.
// Counts are comparable; wall-clock is ~4 orders of magnitude faster on
// modern hardware.
#include <iostream>

#include "bench_common.hpp"
#include "util/timer.hpp"

int main() {
  using namespace pipesched;
  bench::banner("Statistics for Scheduling the Synthetic Corpus", "Table 7");

  const int runs = bench::corpus_runs();
  const CorpusRunOptions options = bench::paper_run_options();
  std::cout << "corpus: " << runs << " blocks, machine "
            << options.machine.name() << ", curtail point lambda = "
            << options.search.curtail_lambda << "\n\n";

  Timer wall;
  const std::vector<RunRecord> records =
      bench::run_paper_corpus(runs, options);
  const double total_seconds = wall.seconds();

  const CorpusSummary summary = summarize_corpus(records);
  std::cout << "[paper protocol: enumerated prunes + critical-path lower "
               "bound]\n"
            << render_corpus_summary(summary) << "\n";
  std::cout << "total wall time: " << compact_double(total_seconds, 3)
            << "s (" << compact_double(runs / total_seconds, 4)
            << " blocks/second)\n\n";

  // Secondary run: only the pruning rules Section 4.2.3 enumerates.
  CorpusRunOptions enumerated = options;
  enumerated.search.lower_bound_prune = false;
  const CorpusSummary plain =
      summarize_corpus(bench::run_paper_corpus(runs, enumerated));
  std::cout << "[enumerated pruning rules only]\n"
            << render_corpus_summary(plain) << "\n";

  CsvWriter csv("table7.csv");
  csv.row({"variant", "column", "runs", "percent", "avg_instructions",
           "avg_initial_nops", "avg_final_nops", "avg_omega_calls",
           "avg_seconds"});
  const auto dump = [&](const char* variant, const char* name,
                        const CorpusSummary::Column& column) {
    csv.row_of(variant, name, column.runs, column.percent,
               column.avg_instructions, column.avg_initial_nops,
               column.avg_final_nops,
               column.average(&SearchStats::omega_calls),
               column.avg_seconds);
  };
  dump("paper_protocol", "completed", summary.completed);
  dump("paper_protocol", "truncated", summary.truncated);
  dump("paper_protocol", "total", summary.total);
  dump("enumerated_only", "completed", plain.completed);
  dump("enumerated_only", "truncated", plain.truncated);
  dump("enumerated_only", "total", plain.total);

  // Machine-readable exports: one record per block (for post-processing)
  // and a single-object roll-up so successive PRs can track the perf
  // trajectory without parsing tables.
  write_corpus_jsonl(records, "corpus_records.jsonl");
  CorpusBenchMeta meta;
  meta.machine = options.machine.name();
  meta.curtail_lambda = options.search.curtail_lambda;
  meta.deadline_seconds = options.search.deadline_seconds;
  meta.total_wall_seconds = total_seconds;
  write_corpus_bench_json(summary, meta, "BENCH_corpus.json");
  std::cout << "CSV written to table7.csv; per-block records in "
               "corpus_records.jsonl; roll-up in BENCH_corpus.json\n";
  return 0;
}
