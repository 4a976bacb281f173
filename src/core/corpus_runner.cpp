#include "core/corpus_runner.hpp"

#include <array>
#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <type_traits>

#include "ir/dag.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/profiler.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace pipesched {

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

CorpusRunOptions paper_protocol() {
  CorpusRunOptions options;
  options.machine = Machine::paper_simulation();
  SearchConfig& search = options.search;
  search.backend = OptimalBackend::Bnb;
  search.seed_with_list_schedule = true;
  search.alpha_beta = true;
  search.equivalence_prune = true;
  search.strong_equivalence = false;
  // The paper reports "a number of other heuristics" beyond the rules
  // Section 4.2.3 enumerates; the admissible critical-path bound stands
  // in for them.
  search.lower_bound_prune = true;
  // "Large relative to the number searched for an average block".
  search.curtail_lambda = 50000;
  search.deadline_seconds = 0;
  search.dominance_cache = false;
  search.max_live_registers = 0;
  return options;
}

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
        record.stats =
            run_optimal_backend(options.machine, dag, options.search).stats;
      }
    } catch (const std::exception& e) {
      // One bad block must not destroy the batch: record the failure and
      // keep scheduling the rest of the corpus.
      record.error = e.what()[0] ? e.what() : "unknown exception";
      record.stats.completed = false;
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

std::size_t counter_row(std::uint64_t SearchStats::*counter) {
  for (std::size_t i = 0; i < kSearchCounterCount; ++i) {
    if (kSearchCounters[i].member == counter) return i;
  }
  PS_CHECK(false, "not a kSearchCounters member");
}

double row_average(const CorpusSummary::Column& col, std::size_t row) {
  const std::size_t clean = col.runs - col.errors;
  return clean ? static_cast<double>(col.counters[row]) /
                     static_cast<double>(clean)
               : 0.0;
}

std::size_t outcome_count(const CorpusSummary::Column& col,
                          SearchOutcome outcome) {
  return col.outcomes[static_cast<std::size_t>(outcome)];
}

void fill_column(CorpusSummary::Column& col, std::size_t total_runs,
                 const std::vector<const RunRecord*>& records) {
  col.runs = records.size();
  col.percent = total_runs
                    ? 100.0 * static_cast<double>(records.size()) /
                          static_cast<double>(total_runs)
                    : 0.0;
  double insns = 0;
  double initial = 0;
  double secs = 0;
  std::vector<double> block_seconds;  // non-error records, for quantiles
  block_seconds.reserve(records.size());
  for (const RunRecord* r : records) {
    if (!r->error.empty()) {
      ++col.errors;
      continue;
    }
    const SearchStats& s = r->stats;
    const SearchOutcome outcome = s.outcome();
    ++col.outcomes[static_cast<std::size_t>(outcome)];
    if (outcome == SearchOutcome::Optimal ||
        outcome == SearchOutcome::Curtailed) {
      col.scheduled_initial_nops += static_cast<std::uint64_t>(s.initial_nops);
      col.scheduled_final_nops += static_cast<std::uint64_t>(s.best_nops);
    }
    if (s.curtail_reason == CurtailReason::Lambda) ++col.curtailed_lambda;
    if (s.curtail_reason == CurtailReason::Deadline) {
      ++col.curtailed_deadline;
    }
    for (std::size_t i = 0; i < kSearchCounterCount; ++i) {
      col.counters[i] += s.*kSearchCounters[i].member;
    }
    insns += r->block_size;
    initial += s.initial_nops;
    secs += s.seconds;
    block_seconds.push_back(s.seconds);
  }
  col.infeasible = outcome_count(col, SearchOutcome::Infeasible);
  if (block_seconds.empty()) return;
  const auto n = static_cast<double>(block_seconds.size());
  col.avg_instructions = insns / n;
  col.avg_initial_nops = initial / n;
  const std::size_t scheduled = outcome_count(col, SearchOutcome::Optimal) +
                                outcome_count(col, SearchOutcome::Curtailed);
  col.avg_final_nops =
      scheduled ? static_cast<double>(col.scheduled_final_nops) /
                      static_cast<double>(scheduled)
                : 0.0;
  const auto probes = static_cast<double>(
      col.counters[counter_row(&SearchStats::cache_probes)]);
  const auto hits = static_cast<double>(
      col.counters[counter_row(&SearchStats::cache_hits)]);
  col.cache_hit_percent = probes > 0 ? 100.0 * hits / probes : 0.0;
  col.avg_seconds = secs / n;
  // One sort for all three quantiles (the old pattern — percentile() per
  // row — re-sorted the whole sample each time).
  const std::vector<double> qs =
      quantiles(std::move(block_seconds), {50.0, 90.0, 99.0});
  col.p50_seconds = qs[0];
  col.p90_seconds = qs[1];
  col.p99_seconds = qs[2];
}

}  // namespace

double CorpusSummary::Column::average(
    std::uint64_t SearchStats::*counter) const {
  return row_average(*this, counter_row(counter));
}

CorpusSummary summarize_corpus(const std::vector<RunRecord>& records) {
  std::vector<const RunRecord*> completed;
  std::vector<const RunRecord*> truncated;
  std::vector<const RunRecord*> all;
  for (const RunRecord& r : records) {
    all.push_back(&r);
    if (!r.error.empty()) continue;  // counted via Column::errors on totals
    switch (r.stats.outcome()) {
      case SearchOutcome::Optimal:
        completed.push_back(&r);
        break;
      case SearchOutcome::Curtailed:
      case SearchOutcome::NoSchedule:
        truncated.push_back(&r);
        break;
      case SearchOutcome::Infeasible:  // proven, but not optimal: totals only
        break;
    }
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
  for (std::size_t i = 0; i < kSearchCounterCount; ++i) {
    if (kSearchCounters[i].summary == nullptr) continue;
    row(kSearchCounters[i].summary, [i](const CorpusSummary::Column& c) {
      return compact_double(row_average(c, i), 4);
    });
  }
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
  return oss.str();
}

namespace {

/// One definition of the per-block layout: visit(key, field) for every
/// field in export order. The CSV and JSONL writers and
/// parse_run_record() all walk it, so the three can never drift apart.
template <typename Record, typename Visit>
void visit_record_fields(Record& r, Visit&& visit) {
  auto& s = r.stats;
  visit("block_size", r.block_size);
  visit("initial_nops", s.initial_nops);
  visit("final_nops", s.best_nops);
  visit("completed", s.completed);
  visit("curtail_reason", s.curtail_reason);
  visit("feasible", s.feasible);
  for (const SearchCounter& c : kSearchCounters) visit(c.key, s.*c.member);
  visit("seconds", s.seconds);
  visit("error", r.error);
  visit("reproducer", r.reproducer);
}

/// The layout rendered for export: emit(key, text, numeric), where a
/// numeric cell (a number or a bool) is valid JSON as it stands.
template <typename Emit>
void emit_record_fields(const RunRecord& r, std::size_t index, Emit&& emit) {
  emit("index", std::to_string(index), true);
  visit_record_fields(r, [&](const char* key, const auto& field) {
    using T = std::decay_t<decltype(field)>;
    if constexpr (std::is_same_v<T, bool>) {
      emit(key, field ? "true" : "false", true);
    } else if constexpr (std::is_same_v<T, CurtailReason>) {
      emit(key, curtail_reason_name(field), false);
    } else if constexpr (std::is_same_v<T, std::string>) {
      emit(key, field, false);
    } else {
      std::ostringstream oss;
      oss << field;
      emit(key, oss.str(), true);
    }
  });
}

}  // namespace

void write_corpus_csv(const std::vector<RunRecord>& records,
                      const std::string& path) {
  CsvWriter csv(path);
  std::vector<std::string> header;
  emit_record_fields(RunRecord{}, 0,
                     [&](const char* key, const std::string&, bool) {
                       header.push_back(key);
                     });
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

RunRecord parse_run_record(const JsonValue& line) {
  RunRecord r;
  r.stats.completed = false;  // a line that does not say proves nothing
  visit_record_fields(r, [&](const char* key, auto& field) {
    const JsonValue* v = line.find(key);
    if (v == nullptr) return;
    using T = std::decay_t<decltype(field)>;
    if constexpr (std::is_same_v<T, bool>) {
      if (v->is_bool()) field = v->as_bool();
    } else if constexpr (std::is_same_v<T, CurtailReason>) {
      for (CurtailReason c : {CurtailReason::Lambda, CurtailReason::Deadline}) {
        if (v->is_string() && v->as_string() == curtail_reason_name(c)) {
          field = c;
        }
      }
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (v->is_string()) field = v->as_string();
    } else if constexpr (std::is_same_v<T, double>) {
      if (v->is_number()) field = v->as_number();
    } else if (v->is_integer()) {
      field = static_cast<T>(v->as_int64());
    }
  });
  return r;
}

std::vector<CorpusMetric> corpus_metrics(const CorpusSummary::Column& total) {
  std::vector<CorpusMetric> metrics = {{"blocks", total.runs, true},
                                       {"errors", total.errors, true}};
  for (SearchOutcome o :
       {SearchOutcome::Optimal, SearchOutcome::Infeasible,
        SearchOutcome::Curtailed, SearchOutcome::NoSchedule}) {
    metrics.push_back({std::string(search_outcome_name(o)) + "_blocks",
                       outcome_count(total, o), true});
  }
  // Which budget trips first depends on the search's shape, not on
  // whether its answers are right.
  metrics.push_back({"curtailed_lambda_blocks", total.curtailed_lambda, false});
  metrics.push_back(
      {"curtailed_deadline_blocks", total.curtailed_deadline, false});
  metrics.push_back({"total_initial_nops", total.scheduled_initial_nops, true});
  metrics.push_back({"total_final_nops", total.scheduled_final_nops, true});
  for (std::size_t i = 0; i < kSearchCounterCount; ++i) {
    metrics.push_back({std::string("total_") + kSearchCounters[i].key,
                       total.counters[i], false});
  }
  return metrics;
}

namespace {

using JsonFields = std::vector<std::pair<std::string, std::string>>;

/// `"name": {` then one `"key": value` member per line, then `}`.
void write_json_object(std::ostream& out, const char* name,
                       const JsonFields& fields, const char* indent) {
  out << indent << json_quote(name) << ": {\n";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out << indent << "  " << json_quote(fields[i].first) << ": "
        << fields[i].second << (i + 1 < fields.size() ? ",\n" : "\n");
  }
  out << indent << "}";
}

void write_bench_column(std::ostream& out, const char* name,
                        const CorpusSummary::Column& c, const char* indent) {
  auto num = [](double v) {
    std::ostringstream oss;
    oss << v;
    return oss.str();
  };
  JsonFields fields = {
      {"runs", std::to_string(c.runs)},
      {"percent", num(c.percent)},
      {"avg_instructions", num(c.avg_instructions)},
      {"avg_initial_nops", num(c.avg_initial_nops)},
      {"avg_final_nops", num(c.avg_final_nops)},
  };
  for (std::size_t i = 0; i < kSearchCounterCount; ++i) {
    if (kSearchCounters[i].summary == nullptr) continue;
    fields.emplace_back(std::string("avg_") + kSearchCounters[i].key,
                        num(row_average(c, i)));
  }
  fields.insert(fields.end(),
                {{"cache_hit_percent", num(c.cache_hit_percent)},
                 {"avg_seconds", num(c.avg_seconds)},
                 {"p50_seconds", num(c.p50_seconds)},
                 {"p90_seconds", num(c.p90_seconds)},
                 {"p99_seconds", num(c.p99_seconds)},
                 {"errors", std::to_string(c.errors)},
                 {"infeasible", std::to_string(c.infeasible)},
                 {"curtailed_lambda", std::to_string(c.curtailed_lambda)},
                 {"curtailed_deadline", std::to_string(c.curtailed_deadline)}});
  write_json_object(out, name, fields, indent);
}

}  // namespace

void write_corpus_bench_json(const CorpusSummary& summary,
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
  JsonFields metrics;
  for (const CorpusMetric& m : corpus_metrics(summary.total)) {
    metrics.emplace_back(m.key, std::to_string(m.value));
  }
  write_json_object(out, "metrics", metrics, "  ");
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
