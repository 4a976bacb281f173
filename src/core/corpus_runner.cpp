#include "core/corpus_runner.hpp"

#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>

#include "ir/dag.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/metrics.hpp"
#include "util/profiler.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace pipesched {

void fill_run_record(RunRecord& record, const SearchStats& stats) {
  record.initial_nops = stats.initial_nops;
  record.final_nops = stats.best_nops;
  record.omega_calls = stats.omega_calls;
  record.schedules_examined = stats.schedules_examined;
  record.nodes_expanded = stats.nodes_expanded;
  record.cache_probes = stats.cache_probes;
  record.cache_hits = stats.cache_hits;
  record.cache_evictions = stats.cache_evictions;
  record.cache_superseded = stats.cache_superseded;
  record.completed = stats.completed;
  record.curtail_reason = stats.curtail_reason;
  record.feasible = stats.feasible;
  record.pruned_window = stats.pruned_window;
  record.pruned_readiness = stats.pruned_readiness;
  record.pruned_equivalence = stats.pruned_equivalence;
  record.pruned_alpha_beta = stats.pruned_alpha_beta;
  record.pruned_lower_bound = stats.pruned_lower_bound;
  record.pruned_dominance = stats.pruned_dominance;
  record.pruned_pressure = stats.pruned_pressure;
  record.seconds = stats.seconds;
}

namespace {

std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

/// Dump a failed block in `psc --tuples` replay form; returns the path,
/// or "" when the dump itself failed (best effort — the record's error
/// field already carries the primary failure).
std::string dump_reproducer(const std::string& prefix, std::size_t index,
                            const BasicBlock& block,
                            const std::string& error) {
  const std::string path = prefix + std::to_string(index) + ".tuples";
  std::ofstream out(path);
  if (!out.good()) return "";
  out << "; corpus block " << index << " failed: " << one_line(error)
      << "\n; replay: psc --tuples " << path << "\n"
      << block.to_string();
  out.flush();
  return out.good() ? path : "";
}

}  // namespace

std::vector<RunRecord> run_corpus(const std::vector<GeneratorParams>& params,
                                  const CorpusRunOptions& options) {
  std::vector<RunRecord> records(params.size());
  ThreadPool pool(options.threads);

  // Always keep a live ProgressReporter: when the caller did not pass
  // one, a silent (snapshot-only) reporter still feeds the obs HTTP
  // server's /status endpoint with done/total/errors/rate for this run.
  std::unique_ptr<ProgressReporter> silent_progress;
  ProgressReporter* progress = options.progress;
  if (progress == nullptr) {
    silent_progress = std::make_unique<ProgressReporter>(params.size());
    progress = silent_progress.get();
  }

  std::atomic<std::uint64_t> blocks_done{0};
  static Counter& blocks_ok = metrics_counter(
      "ps_corpus_blocks_total", {{"status", "ok"}},
      "Corpus blocks processed, by outcome");
  static Counter& blocks_errored = metrics_counter(
      "ps_corpus_blocks_total", {{"status", "error"}},
      "Corpus blocks processed, by outcome");
  static LogHistogram& block_seconds = metrics_histogram(
      "ps_corpus_block_seconds", {},
      "Wall-clock seconds per corpus block (generate + schedule)");
  parallel_for_each(pool, params.size(), [&](std::size_t i) {
    // Per-block span on the worker's own track: the timeline shows which
    // worker ran which block and how the pool's load balanced.
    PS_TRACE_SPAN("corpus_block");
    PS_PROF_PHASE("corpus_block");
    MetricTimer block_timer(block_seconds);
    RunRecord& record = records[i];
    BasicBlock block;
    try {
      {
        PS_PROF_PHASE("generate");
        block = generate_block(params[i]);
      }
      record.block_size = static_cast<int>(block.size());
      if (block.empty()) {
        // Fully optimized away; trivially optimal.
      } else {
        if (options.fault_hook) options.fault_hook(i, block);
        const DepGraph dag(block);
        const ScheduleResult result =
            run_optimal_backend(options.machine, dag, options.search);
        fill_run_record(record, result.stats);
      }
    } catch (const std::exception& e) {
      // One bad block must not destroy the batch: record the failure and
      // keep scheduling the rest of the corpus.
      record.error = e.what()[0] ? e.what() : "unknown exception";
      record.completed = false;
      if (!options.reproducer_prefix.empty() && !block.empty()) {
        record.reproducer = dump_reproducer(options.reproducer_prefix, i,
                                            block, record.error);
      }
    }
    if (trace_enabled()) {
      trace_counter("corpus/blocks_done",
                    static_cast<double>(
                        blocks_done.fetch_add(1, std::memory_order_relaxed) +
                        1));
    }
    (record.error.empty() ? blocks_ok : blocks_errored).increment();
    progress->add(!record.error.empty());
  });
  progress->finish();
  return records;
}

namespace {

void fill_column(CorpusSummary::Column& col, std::size_t total_runs,
                 const std::vector<const RunRecord*>& records) {
  col.runs = records.size();
  col.percent = total_runs
                    ? 100.0 * static_cast<double>(records.size()) /
                          static_cast<double>(total_runs)
                    : 0.0;
  if (records.empty()) return;
  double insns = 0;
  double initial = 0;
  double final_nops = 0;
  double omega = 0;
  double nodes = 0;
  double probes = 0;
  double hits = 0;
  double secs = 0;
  double pr_window = 0, pr_ready = 0, pr_equiv = 0, pr_ab = 0, pr_lb = 0,
         pr_dom = 0, pr_pressure = 0;
  std::vector<double> block_seconds;  // retained for the quantile rows
  block_seconds.reserve(records.size());
  std::size_t clean = 0;     // non-error records: the averaging population
  std::size_t feasible = 0;  // population for the final-NOPs average
  for (const RunRecord* r : records) {
    if (!r->error.empty()) {
      ++col.errors;
      continue;
    }
    ++clean;
    block_seconds.push_back(r->seconds);
    if (r->feasible) {
      ++feasible;
      final_nops += r->final_nops;
    } else if (r->completed) {  // curtailed without a schedule: unproven
      ++col.infeasible;
    }
    if (r->curtail_reason == CurtailReason::Lambda) ++col.curtailed_lambda;
    if (r->curtail_reason == CurtailReason::Deadline) {
      ++col.curtailed_deadline;
    }
    insns += r->block_size;
    initial += r->initial_nops;
    omega += static_cast<double>(r->omega_calls);
    nodes += static_cast<double>(r->nodes_expanded);
    probes += static_cast<double>(r->cache_probes);
    hits += static_cast<double>(r->cache_hits);
    secs += r->seconds;
    pr_window += static_cast<double>(r->pruned_window);
    pr_ready += static_cast<double>(r->pruned_readiness);
    pr_equiv += static_cast<double>(r->pruned_equivalence);
    pr_ab += static_cast<double>(r->pruned_alpha_beta);
    pr_lb += static_cast<double>(r->pruned_lower_bound);
    pr_dom += static_cast<double>(r->pruned_dominance);
    pr_pressure += static_cast<double>(r->pruned_pressure);
  }
  if (clean == 0) return;
  const auto n = static_cast<double>(clean);
  col.avg_instructions = insns / n;
  col.avg_initial_nops = initial / n;
  col.avg_final_nops =
      feasible ? final_nops / static_cast<double>(feasible) : 0.0;
  col.avg_omega_calls = omega / n;
  col.avg_nodes_expanded = nodes / n;
  col.cache_hit_percent = probes > 0 ? 100.0 * hits / probes : 0.0;
  col.avg_seconds = secs / n;
  // One sort for all three quantiles (the old pattern — percentile() per
  // row — re-sorted the whole sample each time).
  const std::vector<double> qs =
      quantiles(std::move(block_seconds), {50.0, 90.0, 99.0});
  col.p50_seconds = qs[0];
  col.p90_seconds = qs[1];
  col.p99_seconds = qs[2];
  col.avg_pruned_window = pr_window / n;
  col.avg_pruned_readiness = pr_ready / n;
  col.avg_pruned_equivalence = pr_equiv / n;
  col.avg_pruned_alpha_beta = pr_ab / n;
  col.avg_pruned_lower_bound = pr_lb / n;
  col.avg_pruned_dominance = pr_dom / n;
  col.avg_pruned_pressure = pr_pressure / n;
}

}  // namespace

CorpusSummary summarize_corpus(const std::vector<RunRecord>& records) {
  std::vector<const RunRecord*> completed;
  std::vector<const RunRecord*> truncated;
  std::vector<const RunRecord*> all;
  for (const RunRecord& r : records) {
    all.push_back(&r);
    if (!r.error.empty()) continue;  // counted via Column::errors on totals
    (r.completed ? completed : truncated).push_back(&r);
  }
  CorpusSummary summary;
  fill_column(summary.completed, records.size(), completed);
  fill_column(summary.truncated, records.size(), truncated);
  fill_column(summary.total, records.size(), all);
  return summary;
}

std::string render_corpus_summary(const CorpusSummary& summary) {
  std::ostringstream oss;
  auto row = [&](const std::string& label, auto get) {
    oss << pad_right(label, 30) << pad_left(get(summary.completed), 14)
        << pad_left(get(summary.truncated), 14)
        << pad_left(get(summary.total), 14) << "\n";
  };
  oss << pad_right("", 30) << pad_left("Completed", 14)
      << pad_left("Truncated", 14) << pad_left("Totals", 14) << "\n";
  oss << pad_right("", 30) << pad_left("(Optimal)", 14)
      << pad_left("(Suboptimal?)", 14) << pad_left("", 14) << "\n";
  row("Number of Runs", [](const CorpusSummary::Column& c) {
    return std::to_string(c.runs);
  });
  row("Percentage of Runs", [](const CorpusSummary::Column& c) {
    return compact_double(c.percent, 4) + "%";
  });
  row("Avg. Instructions/Block", [](const CorpusSummary::Column& c) {
    return compact_double(c.avg_instructions, 4);
  });
  row("Avg. Initial NOPs", [](const CorpusSummary::Column& c) {
    return compact_double(c.avg_initial_nops, 3);
  });
  row("Avg. Final NOPs", [](const CorpusSummary::Column& c) {
    return compact_double(c.avg_final_nops, 3);
  });
  row("Avg. Omega Calls", [](const CorpusSummary::Column& c) {
    return compact_double(c.avg_omega_calls, 4);
  });
  row("Avg. Nodes Expanded", [](const CorpusSummary::Column& c) {
    return compact_double(c.avg_nodes_expanded, 4);
  });
  row("Cache Hit Rate", [](const CorpusSummary::Column& c) {
    return compact_double(c.cache_hit_percent, 4) + "%";
  });
  row("Avg. Search Time", [](const CorpusSummary::Column& c) {
    return compact_double(c.avg_seconds * 1e6, 3) + "us";
  });
  row("p50 Search Time", [](const CorpusSummary::Column& c) {
    return compact_double(c.p50_seconds * 1e6, 3) + "us";
  });
  row("p90 Search Time", [](const CorpusSummary::Column& c) {
    return compact_double(c.p90_seconds * 1e6, 3) + "us";
  });
  row("p99 Search Time", [](const CorpusSummary::Column& c) {
    return compact_double(c.p99_seconds * 1e6, 3) + "us";
  });
  row("Curtailed (lambda)", [](const CorpusSummary::Column& c) {
    return std::to_string(c.curtailed_lambda);
  });
  row("Curtailed (deadline)", [](const CorpusSummary::Column& c) {
    return std::to_string(c.curtailed_deadline);
  });
  row("Infeasible Blocks", [](const CorpusSummary::Column& c) {
    return std::to_string(c.infeasible);
  });
  row("Errored Blocks", [](const CorpusSummary::Column& c) {
    return std::to_string(c.errors);
  });
  row("Avg. Window Prunes [5a]", [](const CorpusSummary::Column& c) {
    return compact_double(c.avg_pruned_window, 4);
  });
  row("Avg. Readiness Prunes [5b]", [](const CorpusSummary::Column& c) {
    return compact_double(c.avg_pruned_readiness, 4);
  });
  row("Avg. Equivalence Prunes [5c]", [](const CorpusSummary::Column& c) {
    return compact_double(c.avg_pruned_equivalence, 4);
  });
  row("Avg. Alpha-Beta Prunes [6]", [](const CorpusSummary::Column& c) {
    return compact_double(c.avg_pruned_alpha_beta, 4);
  });
  row("Avg. Lower-Bound Prunes", [](const CorpusSummary::Column& c) {
    return compact_double(c.avg_pruned_lower_bound, 4);
  });
  row("Avg. Dominance Prunes", [](const CorpusSummary::Column& c) {
    return compact_double(c.avg_pruned_dominance, 4);
  });
  row("Avg. Pressure Prunes", [](const CorpusSummary::Column& c) {
    return compact_double(c.avg_pruned_pressure, 4);
  });
  if (metrics_enabled()) {
    // Registry cross-check: process-wide totals accumulated by the
    // instrumentation layers during this (and any earlier) corpus run.
    const MetricsSnapshot snapshot = metrics_snapshot();
    oss << "\nmetrics-derived totals: "
        << static_cast<std::uint64_t>(snapshot.value_or_zero(
               "ps_corpus_blocks_total", {{"status", "ok"}}))
        << " blocks ok, "
        << static_cast<std::uint64_t>(snapshot.value_or_zero(
               "ps_corpus_blocks_total", {{"status", "error"}}))
        << " errored, "
        << static_cast<std::uint64_t>(
               snapshot.value_or_zero("ps_search_runs_total"))
        << " searches, "
        << static_cast<std::uint64_t>(
               snapshot.value_or_zero("ps_search_nodes_expanded_total"))
        << " nodes expanded\n"
        << metrics_summary_line() << "\n";
  }
  return oss.str();
}

namespace {

/// One definition of the export layout so the CSV and JSONL files can
/// never drift apart.
template <typename Emit>
void emit_record_fields(const RunRecord& r, std::size_t index, Emit&& emit) {
  emit("index", std::to_string(index), true);
  emit("block_size", std::to_string(r.block_size), true);
  emit("initial_nops", std::to_string(r.initial_nops), true);
  emit("final_nops", std::to_string(r.final_nops), true);
  emit("omega_calls", std::to_string(r.omega_calls), true);
  emit("schedules_examined", std::to_string(r.schedules_examined), true);
  emit("nodes_expanded", std::to_string(r.nodes_expanded), true);
  emit("cache_probes", std::to_string(r.cache_probes), true);
  emit("cache_hits", std::to_string(r.cache_hits), true);
  emit("cache_evictions", std::to_string(r.cache_evictions), true);
  emit("cache_superseded", std::to_string(r.cache_superseded), true);
  emit("completed", r.completed ? "true" : "false", true);
  emit("curtail_reason", curtail_reason_name(r.curtail_reason), false);
  emit("feasible", r.feasible ? "true" : "false", true);
  emit("pruned_window", std::to_string(r.pruned_window), true);
  emit("pruned_readiness", std::to_string(r.pruned_readiness), true);
  emit("pruned_equivalence", std::to_string(r.pruned_equivalence), true);
  emit("pruned_alpha_beta", std::to_string(r.pruned_alpha_beta), true);
  emit("pruned_lower_bound", std::to_string(r.pruned_lower_bound), true);
  emit("pruned_dominance", std::to_string(r.pruned_dominance), true);
  emit("pruned_pressure", std::to_string(r.pruned_pressure), true);
  {
    std::ostringstream oss;
    oss << r.seconds;
    emit("seconds", oss.str(), true);
  }
  emit("error", r.error, false);
  emit("reproducer", r.reproducer, false);
}

}  // namespace

void write_corpus_csv(const std::vector<RunRecord>& records,
                      const std::string& path) {
  CsvWriter csv(path);
  std::vector<std::string> header;
  if (!records.empty()) {
    emit_record_fields(records.front(), 0,
                       [&](const char* key, const std::string&, bool) {
                         header.push_back(key);
                       });
  } else {
    RunRecord dummy;
    emit_record_fields(dummy, 0,
                       [&](const char* key, const std::string&, bool) {
                         header.push_back(key);
                       });
  }
  csv.row(header);
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::vector<std::string> cells;
    emit_record_fields(records[i], i,
                       [&](const char*, const std::string& value, bool) {
                         cells.push_back(value);
                       });
    csv.row(cells);
  }
  csv.close();
}

void write_corpus_jsonl(const std::vector<RunRecord>& records,
                        const std::string& path) {
  JsonlWriter out(path);
  for (std::size_t i = 0; i < records.size(); ++i) {
    out.begin();
    emit_record_fields(
        records[i], i,
        [&](const char* key, const std::string& value, bool numeric) {
          // Numeric/bool cells are already valid JSON values; strings
          // need quoting.
          if (numeric) {
            out.field_raw(key, value);
          } else {
            out.field(key, value);
          }
        });
    out.end();
  }
  out.close();
}

namespace {

void write_bench_column(std::ostream& out, const char* name,
                        const CorpusSummary::Column& c, const char* indent) {
  out << indent << json_quote(name) << ": {\n";
  const std::string inner = std::string(indent) + "  ";
  auto field = [&](const char* key, const std::string& value, bool last) {
    out << inner << json_quote(key) << ": " << value << (last ? "\n" : ",\n");
  };
  auto num = [](double v) {
    std::ostringstream oss;
    oss << v;
    return oss.str();
  };
  field("runs", std::to_string(c.runs), false);
  field("percent", num(c.percent), false);
  field("avg_instructions", num(c.avg_instructions), false);
  field("avg_initial_nops", num(c.avg_initial_nops), false);
  field("avg_final_nops", num(c.avg_final_nops), false);
  field("avg_omega_calls", num(c.avg_omega_calls), false);
  field("avg_nodes_expanded", num(c.avg_nodes_expanded), false);
  field("cache_hit_percent", num(c.cache_hit_percent), false);
  field("avg_seconds", num(c.avg_seconds), false);
  field("p50_seconds", num(c.p50_seconds), false);
  field("p90_seconds", num(c.p90_seconds), false);
  field("p99_seconds", num(c.p99_seconds), false);
  field("errors", std::to_string(c.errors), false);
  field("infeasible", std::to_string(c.infeasible), false);
  field("curtailed_lambda", std::to_string(c.curtailed_lambda), false);
  field("curtailed_deadline", std::to_string(c.curtailed_deadline), false);
  field("avg_pruned_window", num(c.avg_pruned_window), false);
  field("avg_pruned_readiness", num(c.avg_pruned_readiness), false);
  field("avg_pruned_equivalence", num(c.avg_pruned_equivalence), false);
  field("avg_pruned_alpha_beta", num(c.avg_pruned_alpha_beta), false);
  field("avg_pruned_lower_bound", num(c.avg_pruned_lower_bound), false);
  field("avg_pruned_dominance", num(c.avg_pruned_dominance), false);
  field("avg_pruned_pressure", num(c.avg_pruned_pressure), true);
  out << indent << "}";
}

}  // namespace

namespace {

/// The exact-integer roll-up: deterministic for a fixed corpus seed, so
/// bench_diff can compare these fields bit-for-bit where the summary
/// averages would drift through floating-point formatting.
void write_bench_metrics(std::ostream& out,
                         const std::vector<RunRecord>& records,
                         const char* indent) {
  std::uint64_t initial_nops = 0, final_nops = 0, omega = 0, nodes = 0,
                examined = 0, probes = 0, hits = 0;
  std::size_t errors = 0, infeasible = 0, optimal = 0, curtailed_lambda = 0,
              curtailed_deadline = 0;
  for (const RunRecord& r : records) {
    if (!r.error.empty()) {
      ++errors;
      continue;
    }
    if (r.feasible) {
      initial_nops += static_cast<std::uint64_t>(r.initial_nops);
      final_nops += static_cast<std::uint64_t>(r.final_nops);
    }
    if (r.completed) ++(r.feasible ? optimal : infeasible);
    if (r.curtail_reason == CurtailReason::Lambda) ++curtailed_lambda;
    if (r.curtail_reason == CurtailReason::Deadline) ++curtailed_deadline;
    omega += r.omega_calls;
    nodes += r.nodes_expanded;
    examined += r.schedules_examined;
    probes += r.cache_probes;
    hits += r.cache_hits;
  }
  out << indent << json_quote("metrics") << ": {\n";
  const std::string inner = std::string(indent) + "  ";
  auto field = [&](const char* key, std::uint64_t value, bool last) {
    out << inner << json_quote(key) << ": " << value
        << (last ? "\n" : ",\n");
  };
  field("blocks", records.size(), false);
  field("errors", errors, false);
  field("optimal_blocks", optimal, false);
  field("infeasible_blocks", infeasible, false);
  field("curtailed_lambda_blocks", curtailed_lambda, false);
  field("curtailed_deadline_blocks", curtailed_deadline, false);
  field("total_initial_nops", initial_nops, false);
  field("total_final_nops", final_nops, false);
  field("total_omega_calls", omega, false);
  field("total_nodes_expanded", nodes, false);
  field("total_schedules_examined", examined, false);
  field("total_cache_probes", probes, false);
  field("total_cache_hits", hits, true);
  out << indent << "}";
}

}  // namespace

void write_corpus_bench_json(const CorpusSummary& summary,
                             const std::vector<RunRecord>& records,
                             const CorpusBenchMeta& meta,
                             const std::string& path) {
  std::ofstream out(path);
  PS_CHECK(out.good(), "cannot open bench roll-up file: " << path);
  out << "{\n";
  out << "  " << json_quote("machine") << ": " << json_quote(meta.machine)
      << ",\n";
  out << "  " << json_quote("backend") << ": " << json_quote(meta.backend)
      << ",\n";
  out << "  " << json_quote("curtail_lambda") << ": " << meta.curtail_lambda
      << ",\n";
  out << "  " << json_quote("deadline_seconds") << ": "
      << meta.deadline_seconds << ",\n";
  out << "  " << json_quote("total_wall_seconds") << ": "
      << meta.total_wall_seconds << ",\n";
  write_bench_metrics(out, records, "  ");
  out << ",\n";
  write_bench_column(out, "completed", summary.completed, "  ");
  out << ",\n";
  write_bench_column(out, "truncated", summary.truncated, "  ");
  out << ",\n";
  write_bench_column(out, "total", summary.total, "  ");
  out << "\n}\n";
  out.flush();
  PS_CHECK(out.good(), "write failure on bench roll-up file: " << path);
}

}  // namespace pipesched
