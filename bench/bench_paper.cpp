// The paper's experiment: Table 7 and Figures 1, 4, 5, 6 and 7.
//
// Table 7 has one row per configuration, and each row is one pass over
// the PS_CORPUS_RUNS-block corpus (default 16,000):
//   1. paper protocol          paper_protocol(): the enumerated prunes plus
//                              the critical-path bound, lambda = 50,000;
//   2. - critical-path bound   the enumerated prunes alone;
//   3. + dominance cache (ext) row 1 with the transposition cache; this
//                              row writes corpus_records.jsonl and the
//                              BENCH_corpus.json roll-up that tools/ci.sh
//                              gates on;
//   4. CP backend (ext)        row 3 on the CP/DP backend.
// The figures are drawn from row 1's records; none makes a pass of its own.
// PS_DEADLINE (seconds per search, fractional allowed) applies to every
// row.
//
// Paper values for orientation (Sun 3/50, 1990):
//   completed runs 15,812 (98.83%), truncated 188 (1.17%);
//   avg instructions/block 20.50 (completed) / 32.28 (truncated);
//   avg initial NOPs 9.50 / 14.34; avg final NOPs 0.67 / 4.03;
//   avg Omega calls 427.4 / 54,150; avg time ~0.1s / ~15s.
// Counts are comparable; wall-clock is ~4 orders of magnitude faster on
// modern hardware.
//
// Observability knobs, set up once per process, so each file covers every
// row (B&B and CP samples stay apart under their bnb and cp phases):
//   PS_TRACE=<path>    structured trace, written as Chrome trace-event
//                      JSON;
//   PS_METRICS=<path>  the metrics registry's final snapshot (.prom/.txt =
//                      Prometheus text exposition, .json = JSON), with
//                      its one-line summary on stderr;
//   PS_PROFILE=<path>  every thread's phase stack, sampled, written as
//                      collapsed-stack lines (flamegraph.pl/speedscope
//                      input; a phase-share table goes to stderr too);
//   PS_WATCHDOG=<seconds>  a search with no heartbeat progress for that
//                      long dumps its flight recorder to stderr (and
//                      <PS_PROFILE>.stall.json when PS_PROFILE is set);
//   PS_PROGRESS=1      live progress on stderr, one line per row;
//   PS_SERVE=<port>    live endpoints (/metrics, /healthz, /status,
//                      /profile?seconds=N, ...) on 127.0.0.1:<port>; 0
//                      picks an ephemeral port, and the bound URL is
//                      printed to stderr either way.
// SIGINT/SIGTERM flush the PS_TRACE / PS_METRICS / PS_PROFILE files and
// stop the server before the process exits with 128+signo.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/http_exporter.hpp"
#include "util/ascii_chart.hpp"
#include "util/interrupt.hpp"
#include "util/metrics.hpp"
#include "util/profiler.hpp"
#include "util/progress.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace {

using namespace pipesched;

/// A knob's value; empty when unset.
std::string knob(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : "";
}

/// PS_SERVE's server: started on the first call, kept for the whole
/// process, null when the knob is unset. A bench has no setup worth
/// gating /readyz on, so the server is ready at once.
HttpExporter* http_exporter() {
  static const std::unique_ptr<HttpExporter> server = [] {
    std::unique_ptr<HttpExporter> s;
    if (const std::string port = knob("PS_SERVE"); !port.empty()) {
      HttpExporterOptions options;
      options.port = static_cast<std::uint16_t>(std::atoi(port.c_str()));
      s = std::make_unique<HttpExporter>(options);
      s->set_ready(true);
      std::cerr << "bench: serving observability endpoints on "
                << s->base_url() << "\n";
    }
    return s;
  }();
  return server.get();
}

/// Stop each collector that is still on and write its file. The normal
/// exit and the interrupt path both call this; a collector already
/// stopped is skipped, so a file is written once.
void write_observability_files() {
  if (const std::string path = knob("PS_PROFILE");
      !path.empty() && profiler_enabled()) {
    profiler_disable();
    profiler_write_collapsed(path);
    std::cerr << "profile: " << profiler_total_samples()
              << " samples written to " << path
              << " (collapsed-stack format)\n"
              << profiler_phase_table();
  }
  if (const std::string path = knob("PS_TRACE");
      !path.empty() && trace_enabled()) {
    trace_disable();
    trace_write_json(path);
    std::cerr << "trace written to " << path
              << " (open in chrome://tracing or https://ui.perfetto.dev)\n";
  }
  if (const std::string path = knob("PS_METRICS");
      !path.empty() && metrics_enabled()) {
    metrics_disable();
    metrics_write(path);
    std::cerr << metrics_summary_line() << " written to " << path << "\n";
  }
}

/// Switch every observability knob on, once, before the first pass.
void start_observability() {
  // The blocked signal mask must be in place before the server, the
  // profiler and the pool spawn threads that inherit it.
  install_graceful_interrupt([](int) {
    if (HttpExporter* s = http_exporter()) s->stop();
    progress_finish_all();
    write_observability_files();
  });
  http_exporter();
  if (!knob("PS_TRACE").empty()) trace_enable();
  if (!knob("PS_METRICS").empty()) metrics_enable();
  const std::string profile = knob("PS_PROFILE");
  if (const double seconds = std::atof(knob("PS_WATCHDOG").c_str());
      seconds > 0) {
    watchdog_enable(seconds, profile.empty() ? "" : profile + ".stall.json");
  }
  if (!profile.empty()) profiler_enable();
}

/// One corpus pass, with PS_PROGRESS's live line when asked for.
std::vector<RunRecord> run_pass(const std::vector<GeneratorParams>& params,
                                CorpusRunOptions options) {
  std::unique_ptr<ProgressReporter> progress;
  if (!knob("PS_PROGRESS").empty()) {
    progress = std::make_unique<ProgressReporter>(
        params.size(), std::cerr, ProgressReporter::stderr_is_tty());
    options.progress = progress.get();
  }
  return run_corpus(params, options);
}

struct Row {
  const char* label;    ///< the heading printed above its table
  const char* variant;  ///< table7.csv's variant column
  CorpusRunOptions options;
  bool writes_rollup = false;  ///< corpus_records.jsonl + BENCH_corpus.json
};

void section(const std::string& title) {
  std::cout << "\n---- " << title << " ----\n";
}

void figure1(const std::vector<RunRecord>& records) {
  section("Figure 1: schedules searched vs. block size (completed runs)");
  std::vector<ChartPoint> points;
  GroupedStats by_size;
  CsvWriter csv("fig1.csv");
  csv.row({"block_size", "omega_calls"});
  for (const RunRecord& r : records) {
    if (r.stats.outcome() != SearchOutcome::Optimal || r.block_size == 0) {
      continue;
    }
    points.push_back({static_cast<double>(r.block_size),
                      static_cast<double>(r.stats.omega_calls)});
    by_size.add(r.block_size, static_cast<double>(r.stats.omega_calls));
    csv.row_of(r.block_size, r.stats.omega_calls);
  }

  ChartOptions options;
  options.title = "placements examined (log) vs block size, " +
                  std::to_string(points.size()) + " complete runs";
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
}

void figure4(const std::vector<RunRecord>& records) {
  section("Figure 4: initial and final NOPs vs. block size");
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
}

/// The corpus deliberately over-represents large blocks (average 20.6
/// instructions vs <10 in real programs) to stress the scheduler.
void figure5(const std::vector<RunRecord>& records) {
  section("Figure 5: distribution of sample block sizes");
  Histogram hist;
  Accumulator sizes;
  for (const RunRecord& r : records) {
    hist.add(r.block_size);
    sizes.add(r.block_size);
  }

  // Bucket by 2 for a readable bar chart.
  Histogram bucketed;
  for (const auto& [size, count] : hist.bins()) {
    bucketed.add(size / 2 * 2, count);
  }
  ChartOptions options;
  options.title = "blocks per size bucket (bucket = 2 instructions)";
  options.width = 60;
  std::cout << render_histogram(bucketed, options) << "\n";

  std::cout << "blocks: " << sizes.count() << ", mean size "
            << compact_double(sizes.mean(), 4) << " (paper: 20.6), min "
            << sizes.min() << ", max " << sizes.max() << ", stddev "
            << compact_double(sizes.stddev(), 3) << "\n";

  CsvWriter csv("fig5.csv");
  csv.row({"block_size", "count"});
  for (const auto& [size, count] : hist.bins()) csv.row_of(size, count);
  std::cout << "CSV written to fig5.csv\n";
}

/// The paper reports ~0.1s per typical block on a Sun 3/50; the *shape*
/// (flat for common sizes, rising for the largest, curtail-bounded
/// blocks) is the reproduced result.
void figure6(const std::vector<RunRecord>& records, std::size_t workers) {
  section("Figure 6: runtime vs. block size");
  GroupedStats micros;
  for (const RunRecord& r : records) {
    if (r.block_size == 0) continue;
    micros.add(r.block_size, r.stats.seconds * 1e6);
  }

  ChartOptions chart;
  chart.title = "mean search time (microseconds, log) vs block size, " +
                std::to_string(workers) + " workers";
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
}

/// Paper shape: essentially 100% for blocks under ~20 instructions,
/// declining for the largest blocks at a fixed curtail point.
void figure7(const std::vector<RunRecord>& records) {
  section("Figure 7: percentage of provably optimal runs vs. block size");
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
}

}  // namespace

int main() {
  bench::banner("The Paper's Experiment: Statistics for Scheduling the "
                "Synthetic Corpus",
                "Table 7 and Figures 1, 4, 5, 6 and 7");

  const int runs = bench::corpus_runs();
  CorpusSpec spec;
  spec.total_runs = runs;
  const std::vector<GeneratorParams> params = corpus_params(spec);

  CorpusRunOptions paper = paper_protocol();
  if (const double seconds = std::atof(knob("PS_DEADLINE").c_str());
      seconds > 0) {
    paper.search.deadline_seconds = seconds;
  }
  std::vector<Row> rows;
  rows.push_back({"paper protocol: enumerated prunes + critical-path bound",
                  "paper_protocol", paper});
  rows.push_back({"- critical-path bound: the enumerated prunes alone",
                  "enumerated_only", paper});
  rows.back().options.search.lower_bound_prune = false;
  rows.push_back({"+ dominance cache (ext)", "dominance_cache", paper, true});
  rows.back().options.search.dominance_cache = true;
  rows.push_back({"CP backend (ext): row 3 on the CP/DP backend",
                  "cp_backend", rows.back().options});
  rows.back().options.search.backend = OptimalBackend::Cp;

  std::cout << "corpus: " << runs << " blocks per row, machine "
            << paper.machine.name() << ", curtail point lambda = "
            << paper.search.curtail_lambda << "\n";

  start_observability();
  CsvWriter csv("table7.csv");
  csv.row({"variant", "column", "runs", "percent", "avg_instructions",
           "avg_initial_nops", "avg_final_nops", "avg_omega_calls",
           "avg_seconds"});
  std::vector<RunRecord> paper_records;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    Timer wall;
    std::vector<RunRecord> records = run_pass(params, row.options);
    const double seconds = wall.seconds();

    const CorpusSummary summary = summarize_corpus(records);
    std::cout << "\n[" << i + 1 << ". " << row.label << "]\n"
              << render_corpus_summary(summary) << "\n"
              << "total wall time: " << compact_double(seconds, 3) << "s ("
              << compact_double(runs / seconds, 4) << " blocks/second)\n";
    for (const auto& [name, column] :
         {std::pair{"completed", &summary.completed},
          std::pair{"truncated", &summary.truncated},
          std::pair{"total", &summary.total}}) {
      csv.row_of(row.variant, name, column->runs, column->percent,
                 column->avg_instructions, column->avg_initial_nops,
                 column->avg_final_nops,
                 column->average(&SearchStats::omega_calls),
                 column->avg_seconds);
    }

    if (row.writes_rollup) {
      // Machine-readable exports: one record per block, and a one-object
      // roll-up that tools/bench_diff compares against the committed copy.
      write_corpus_jsonl(records, "corpus_records.jsonl");
      CorpusBenchMeta meta;
      meta.machine = row.options.machine.name();
      meta.backend = optimal_backend_name(row.options.search.backend);
      meta.curtail_lambda = row.options.search.curtail_lambda;
      meta.deadline_seconds = row.options.search.deadline_seconds;
      meta.total_wall_seconds = seconds;
      write_corpus_bench_json(summary, meta, "BENCH_corpus.json");
      std::cout << "per-block records in corpus_records.jsonl; roll-up in "
                   "BENCH_corpus.json\n";
    }
    if (i == 0) paper_records = std::move(records);
  }
  csv.close();
  std::cout << "CSV written to table7.csv\n";

  watchdog_disable();
  write_observability_files();

  std::cout << "\nFigures 1, 4, 5, 6 and 7 from row 1's records:\n";
  figure1(paper_records);
  figure4(paper_records);
  figure5(paper_records);
  figure6(paper_records, std::max(1u, std::thread::hardware_concurrency()));
  figure7(paper_records);
  return 0;
}
