// Shared plumbing for the table/figure reproduction binaries.
//
// Every bench prints the paper-style table or ASCII figure to stdout and
// mirrors the raw series into a CSV file next to the working directory.
// Workload sizes default to the paper's (16,000 corpus blocks) and can be
// overridden through the PS_CORPUS_RUNS environment variable for quick
// smoke runs.
// Observability knobs (shared by every figure/table bench):
//   PS_TRACE=<path>    record a structured trace of each corpus run and
//                      write Chrome trace-event JSON to <path> (the file
//                      covers the most recent run);
//   PS_METRICS=<path>  enable the metrics registry for the corpus run and
//                      export the final snapshot to <path> (.prom/.txt =
//                      Prometheus text exposition, .json = JSON);
//   PS_PROGRESS=1      live corpus progress on stderr;
//   PS_PROFILE=<path>  sample every thread's phase stack during the corpus
//                      run and write collapsed-stack lines to <path>
//                      (flamegraph.pl/speedscope input; a phase-share
//                      table is printed to stderr as well);
//   PS_WATCHDOG=<seconds>  arm the stall watchdog: a search with no
//                      heartbeat progress for that long dumps its flight
//                      recorder to stderr (and <PS_PROFILE>.stall.json
//                      when PS_PROFILE is also set);
//   PS_BACKEND=<bnb|cp>  optimal-search backend for the corpus
//                      run (default bnb);
//   PS_SERVE=<port>    serve live observability endpoints (/metrics,
//                      /healthz, /status, /profile?seconds=N, ...) on
//                      127.0.0.1:<port> for the bench's whole lifetime;
//                      0 picks an ephemeral port — the bound URL is
//                      printed to stderr either way.
// Every bench also handles SIGINT/SIGTERM gracefully: the PS_TRACE /
// PS_METRICS / PS_PROFILE outputs are flushed (and the server stopped)
// before the process exits with 128+signo.
#pragma once

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "core/corpus_runner.hpp"
#include "obs/http_exporter.hpp"
#include "sched/scheduler.hpp"
#include "synth/corpus.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/interrupt.hpp"
#include "util/metrics.hpp"
#include "util/profiler.hpp"
#include "util/progress.hpp"
#include "util/strings.hpp"
#include "util/trace.hpp"

namespace pipesched::bench {

/// Corpus size: paper default 16,000, overridable via PS_CORPUS_RUNS.
inline int corpus_runs(int fallback = 16000) {
  if (const char* env = std::getenv("PS_CORPUS_RUNS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return fallback;
}

/// The paper's experiment configuration: Tables 4-5 machine, curtail point
/// "large relative to the number searched for an average block" (the
/// average completed search needs a few hundred placements). Overridable
/// via PS_LAMBDA for calibration runs; PS_DEADLINE (seconds, fractional
/// allowed) adds a wall-clock budget per search on top of lambda.
inline CorpusRunOptions paper_run_options(std::uint64_t lambda = 50000) {
  if (const char* env = std::getenv("PS_LAMBDA")) {
    const long long parsed = std::atoll(env);
    if (parsed >= 0) lambda = static_cast<std::uint64_t>(parsed);
  }
  CorpusRunOptions options;
  options.machine = Machine::paper_simulation();
  options.search.curtail_lambda = lambda;
  if (const char* env = std::getenv("PS_DEADLINE")) {
    const double parsed = std::atof(env);
    if (parsed > 0) options.search.deadline_seconds = parsed;
  }
  // The paper reports using "a number of other heuristics" beyond the
  // rules Section 4.2.3 enumerates; the optimality-preserving critical-
  // path lower bound (verified against exhaustive search in the test
  // suite) is our stand-in, and reproduces the paper's completion rate
  // and search sizes almost exactly (98.5% vs 98.83%, mean ~520 vs 427
  // placements per completed block).
  options.search.lower_bound_prune = true;
  if (const char* env = std::getenv("PS_BACKEND")) {
    if (env[0] != '\0') {
      PS_CHECK(parse_optimal_backend(env, &options.search.backend),
               "PS_BACKEND must be bnb or cp");
    }
  }
  return options;
}

/// PS_SERVE: the bench's embedded observability server, started on the
/// first call and kept alive for the whole process (a bench that runs
/// several corpora serves them all; the server joins at exit). Null when
/// the knob is unset. Benches have no setup phase worth gating /readyz
/// on, so the server is marked ready immediately.
inline HttpExporter* bench_http_exporter() {
  static std::unique_ptr<HttpExporter> server = [] {
    std::unique_ptr<HttpExporter> s;
    if (const char* env = std::getenv("PS_SERVE"); env && env[0] != '\0') {
      HttpExporterOptions options;
      options.port = static_cast<std::uint16_t>(std::atoi(env));
      s = std::make_unique<HttpExporter>(options);
      s->set_ready(true);
      std::cerr << "bench: serving observability endpoints on "
                << s->base_url() << "\n";
    }
    return s;
  }();
  return server.get();
}

/// Run the standard corpus once (shared by the figure benches), honoring
/// the PS_TRACE / PS_PROGRESS observability knobs. A bench that runs
/// several corpora overwrites PS_TRACE's file each time — the trace
/// covers the most recent run, which keeps files bounded.
inline std::vector<RunRecord> run_paper_corpus(
    int runs, const CorpusRunOptions& options) {
  CorpusSpec spec;
  spec.total_runs = runs;

  // Interrupt handling first: the blocked signal mask must be in place
  // before the server/profiler/pool spawn threads that inherit it.
  install_graceful_interrupt([](int) {
    if (HttpExporter* s = bench_http_exporter()) s->stop();
    progress_finish_all();
    if (const char* p = std::getenv("PS_PROFILE");
        p && p[0] != '\0' && profiler_enabled()) {
      profiler_disable();
      profiler_write_collapsed(p);
    }
    if (const char* p = std::getenv("PS_TRACE");
        p && p[0] != '\0' && trace_enabled()) {
      trace_disable();
      trace_write_json(p);
    }
    if (const char* p = std::getenv("PS_METRICS"); p && p[0] != '\0') {
      metrics_disable();
      metrics_write(p);
    }
  });
  bench_http_exporter();

  CorpusRunOptions run_options = options;
  std::unique_ptr<ProgressReporter> progress;
  if (const char* env = std::getenv("PS_PROGRESS"); env && env[0] != '\0') {
    progress = std::make_unique<ProgressReporter>(
        static_cast<std::size_t>(runs), std::cerr,
        ProgressReporter::stderr_is_tty());
    run_options.progress = progress.get();
  }
  const char* trace_path = std::getenv("PS_TRACE");
  if (trace_path && trace_path[0] != '\0') trace_enable();
  const char* metrics_path = std::getenv("PS_METRICS");
  if (metrics_path && metrics_path[0] != '\0') metrics_enable();
  const char* profile_path = std::getenv("PS_PROFILE");
  const bool profiling = profile_path && profile_path[0] != '\0';
  if (const char* env = std::getenv("PS_WATCHDOG"); env && env[0] != '\0') {
    const double seconds = std::atof(env);
    if (seconds > 0) {
      watchdog_enable(seconds, profiling
                                   ? std::string(profile_path) + ".stall.json"
                                   : std::string());
    }
  }
  if (profiling) profiler_enable();

  std::vector<RunRecord> records =
      run_corpus(corpus_params(spec), run_options);

  if (profiling) {
    profiler_disable();
    profiler_write_collapsed(profile_path);
    std::cerr << "profile: " << profiler_total_samples()
              << " samples written to " << profile_path
              << " (collapsed-stack format)\n";
    const std::string table = profiler_phase_table();
    if (!table.empty()) std::cerr << table;
  }
  watchdog_disable();

  if (trace_path && trace_path[0] != '\0') {
    trace_disable();
    trace_write_json(trace_path);
    std::cerr << "trace written to " << trace_path
              << " (open in chrome://tracing or https://ui.perfetto.dev)\n";
  }
  if (metrics_path && metrics_path[0] != '\0') {
    metrics_disable();
    metrics_write(metrics_path);
    std::cerr << metrics_summary_line() << " written to " << metrics_path
              << "\n";
  }
  return records;
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "=============================================================="
               "==========\n"
            << title << "\n(reproduces " << paper_ref
            << " of Nisar & Dietz, 'Optimal Code Scheduling for "
               "Multiple-Pipeline Processors', 1990)\n"
            << "=============================================================="
               "==========\n";
}

}  // namespace pipesched::bench
