// Robustness and observability of the corpus harness and the search's
// wall-clock deadline:
//   * a per-block fault must not destroy the batch — the failed block gets
//     an error record plus a `--tuples` reproducer dump, the rest survive;
//   * corpus results are deterministic across thread counts (all record
//     fields except wall-clock seconds);
//   * deadline expiry curtails like lambda: completed=false, the curtail
//     reason is recorded, and the incumbent is a simulator-valid schedule;
//   * the CSV/JSONL per-block exports and the BENCH_corpus.json roll-up
//     are written and internally consistent;
//   * every roll-up counts a block as optimal or infeasible only when its
//     search completed, and all of them count the same four outcomes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/bench_diff.hpp"
#include "core/corpus_runner.hpp"
#include "ir/block_parser.hpp"
#include "ir/dag.hpp"
#include "sched/cp_scheduler.hpp"
#include "sim/simulator.hpp"
#include "synth/corpus.hpp"
#include "synth/generator.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace pipesched {
namespace {

std::vector<GeneratorParams> small_corpus(int count, int statements = 8) {
  std::vector<GeneratorParams> params;
  for (int i = 0; i < count; ++i) {
    GeneratorParams p;
    p.statements = statements;
    p.variables = 4;
    p.constants = 2;
    p.seed = 100 + static_cast<std::uint64_t>(i);
    params.push_back(p);
  }
  return params;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

/// Every deterministic field (seconds is wall-clock and excluded).
void expect_records_equal(const RunRecord& a, const RunRecord& b,
                          std::size_t index) {
  EXPECT_EQ(a.block_size, b.block_size) << index;
  EXPECT_EQ(a.stats.initial_nops, b.stats.initial_nops) << index;
  EXPECT_EQ(a.stats.best_nops, b.stats.best_nops) << index;
  EXPECT_EQ(a.stats.completed, b.stats.completed) << index;
  EXPECT_EQ(a.stats.curtail_reason, b.stats.curtail_reason) << index;
  EXPECT_EQ(a.stats.feasible, b.stats.feasible) << index;
  for (const SearchCounter& c : kSearchCounters) {
    EXPECT_EQ(a.stats.*c.member, b.stats.*c.member) << c.key << " " << index;
  }
  EXPECT_EQ(a.error, b.error) << index;
}

TEST(CorpusRunner, FaultInjectionKeepsOtherRecords) {
  const auto params = small_corpus(24);
  const std::string prefix =
      (std::filesystem::path(testing::TempDir()) / "ps_repro_").string();

  CorpusRunOptions options;
  options.search.curtail_lambda = 2000;
  options.threads = 4;
  options.reproducer_prefix = prefix;
  options.fault_hook = [](std::size_t i, const BasicBlock&) {
    if (i == 7) throw Error("injected fault for testing");
  };

  const std::vector<RunRecord> records = run_corpus(params, options);
  ASSERT_EQ(records.size(), params.size());

  EXPECT_NE(records[7].error.find("injected fault"), std::string::npos);
  EXPECT_FALSE(records[7].stats.completed);
  ASSERT_FALSE(records[7].reproducer.empty());
  EXPECT_TRUE(std::filesystem::exists(records[7].reproducer));

  // The reproducer must round-trip through the --tuples parser into the
  // exact block that failed.
  const BasicBlock replayed = parse_block(slurp(records[7].reproducer));
  EXPECT_EQ(replayed.size(), static_cast<std::size_t>(records[7].block_size));
  EXPECT_EQ(replayed.to_string(),
            generate_block(params[7]).to_string());

  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i == 7) continue;
    EXPECT_TRUE(records[i].error.empty()) << i;
    EXPECT_GT(records[i].block_size, 0) << i;
    // A zero-NOP list-schedule seed can satisfy the search before a single
    // omega call, so only the result fields are guaranteed populated.
    EXPECT_TRUE(records[i].stats.feasible) << i;
    EXPECT_GE(records[i].stats.best_nops, 0) << i;
  }

  const CorpusSummary summary = summarize_corpus(records);
  EXPECT_EQ(summary.total.errors, 1u);
  EXPECT_EQ(summary.completed.runs + summary.truncated.runs + 1,
            records.size());
  std::filesystem::remove(records[7].reproducer);
}

TEST(CorpusRunner, DeterministicAcrossThreadCounts) {
  const auto params = small_corpus(16);
  CorpusRunOptions serial;
  serial.search.curtail_lambda = 2000;
  serial.threads = 1;
  CorpusRunOptions parallel = serial;
  parallel.threads = 4;

  const auto a = run_corpus(params, serial);
  const auto b = run_corpus(params, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_records_equal(a[i], b[i], i);
  }
}

/// A block whose optimum is several NOPs above zero (seed 31337 under the
/// paper machine), so the search cannot short-circuit on a perfect seed.
BasicBlock huge_block() {
  GeneratorParams params;
  params.statements = 40;
  params.variables = 8;
  params.constants = 3;
  params.seed = 31337;
  BasicBlock block = generate_block(params);
  PS_CHECK(block.size() >= 20, "generator produced a degenerate block");
  return block;
}

/// A block the CP backend needs well over 1,024 nodes to prove.
BasicBlock cp_hard_block() {
  GeneratorParams params;
  params.statements = 36;
  params.variables = 5;
  params.constants = 3;
  params.seed = 5;
  return generate_block(params);
}

/// With every prune disabled the search over huge_block() enumerates
/// hundreds of thousands of nodes — plenty for a deadline to interrupt.
SearchConfig explosive_config() {
  SearchConfig config;
  config.curtail_lambda = 0;  // lambda off: only the clock can stop us
  config.alpha_beta = false;
  config.equivalence_prune = false;
  config.dominance_cache = false;
  return config;
}

TEST(Deadline, TinyDeadlineCurtailsWithValidIncumbent) {
  const Machine machine = Machine::paper_simulation();
  const BasicBlock block = huge_block();
  const DepGraph dag(block);

  SearchConfig config = explosive_config();
  config.deadline_seconds = 1e-9;
  const ScheduleResult result = optimal_schedule(machine, dag, config);

  EXPECT_FALSE(result.stats.completed);
  EXPECT_EQ(result.stats.curtail_reason, CurtailReason::Deadline);
  EXPECT_TRUE(result.stats.feasible);

  // The incumbent must still be a complete, simulator-valid schedule.
  ASSERT_EQ(result.schedule.size(), block.size());
  EXPECT_TRUE(dag.is_legal_order(result.schedule.order));
  const SimResult sim = validate_padded(machine, dag, result.schedule);
  EXPECT_TRUE(sim.ok) << sim.error;
  EXPECT_EQ(result.stats.best_nops, result.schedule.total_nops());
  EXPECT_LE(result.stats.best_nops, result.stats.initial_nops);

  // The CP backend honours the same budget, on a block it cannot prove
  // inside one 1,024-node tick.
  const BasicBlock cp_block = cp_hard_block();
  const DepGraph cp_dag(cp_block);
  const ScheduleResult cp = cp_schedule(machine, cp_dag, config);
  EXPECT_FALSE(cp.stats.completed);
  EXPECT_EQ(cp.stats.curtail_reason, CurtailReason::Deadline);
  EXPECT_TRUE(cp_dag.is_legal_order(cp.schedule.order));
  EXPECT_EQ(cp.stats.best_nops, cp.schedule.total_nops());
}

TEST(Deadline, LambdaAndNoneReasonsRecorded) {
  const Machine machine = Machine::paper_simulation();
  const BasicBlock block = huge_block();
  const DepGraph dag(block);

  SearchConfig lambda_only;
  lambda_only.curtail_lambda = 500;
  const ScheduleResult curtailed =
      optimal_schedule(machine, dag, lambda_only);
  EXPECT_FALSE(curtailed.stats.completed);
  EXPECT_EQ(curtailed.stats.curtail_reason, CurtailReason::Lambda);
  const BasicBlock cp_block = cp_hard_block();
  const ScheduleResult cp_curtailed =
      cp_schedule(machine, DepGraph(cp_block), lambda_only);
  EXPECT_FALSE(cp_curtailed.stats.completed);
  EXPECT_EQ(cp_curtailed.stats.curtail_reason, CurtailReason::Lambda);

  // A search that exhausts its space reports no curtail reason.
  GeneratorParams small;
  small.statements = 3;
  small.variables = 3;
  small.seed = 9;
  const BasicBlock tiny = generate_block(small);
  ASSERT_FALSE(tiny.empty());
  const DepGraph tiny_dag(tiny);
  SearchConfig unlimited;
  unlimited.curtail_lambda = 0;
  const ScheduleResult full = optimal_schedule(machine, tiny_dag, unlimited);
  EXPECT_TRUE(full.stats.completed);
  EXPECT_EQ(full.stats.curtail_reason, CurtailReason::None);
}

TEST(Deadline, GenerousDeadlineDoesNotPerturbSearch) {
  // With a deadline that cannot fire, counters and the optimum must be
  // identical to the no-deadline run — the clock check is observation
  // only.
  const Machine machine = Machine::paper_simulation();
  const auto params = small_corpus(8);
  CorpusRunOptions plain;
  plain.search.curtail_lambda = 2000;
  plain.threads = 2;
  CorpusRunOptions timed = plain;
  timed.search.deadline_seconds = 3600.0;

  const auto a = run_corpus(params, plain);
  const auto b = run_corpus(params, timed);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_records_equal(a[i], b[i], i);
  }
}

TEST(CorpusRunner, PruneCountersAreLiveAndSummarized) {
  const auto params = small_corpus(12);
  CorpusRunOptions options;
  options.search.curtail_lambda = 2000;
  options.threads = 2;
  const auto records = run_corpus(params, options);

  std::uint64_t ab = 0, ready = 0, dominance = 0, hits = 0;
  for (const RunRecord& r : records) {
    ab += r.stats.pruned_alpha_beta;
    ready += r.stats.pruned_readiness;
    dominance += r.stats.pruned_dominance;
    hits += r.stats.cache_hits;
  }
  EXPECT_GT(ab, 0u);
  EXPECT_GT(ready, 0u);
  EXPECT_EQ(dominance, hits);  // duplicated counter must stay in lock-step

  const CorpusSummary summary = summarize_corpus(records);
  EXPECT_GT(summary.total.average(&SearchStats::pruned_alpha_beta), 0.0);
  EXPECT_GT(summary.total.average(&SearchStats::pruned_readiness), 0.0);
  // Per-block wall-time quantiles: ordered, and bounded by the extremes
  // of a sorted sample (p50 <= p90 <= p99).
  EXPECT_GT(summary.total.p50_seconds, 0.0);
  EXPECT_LE(summary.total.p50_seconds, summary.total.p90_seconds);
  EXPECT_LE(summary.total.p90_seconds, summary.total.p99_seconds);

  const std::string rendered = render_corpus_summary(summary);
  EXPECT_NE(rendered.find("Alpha-Beta Prunes"), std::string::npos);
  EXPECT_NE(rendered.find("Curtailed (deadline)"), std::string::npos);
  EXPECT_NE(rendered.find("Errored Blocks"), std::string::npos);
  EXPECT_NE(rendered.find("p50 Search Time"), std::string::npos);
  EXPECT_NE(rendered.find("p99 Search Time"), std::string::npos);
}

TEST(CorpusRunner, ExportsAndRollupSurviveFaultAndDeadline) {
  // The acceptance scenario: a corpus run with a wall-clock deadline and
  // an injected per-block fault must finish, report the error row, and
  // write valid CSV + JSONL + BENCH roll-up.
  const auto params = small_corpus(16, 14);
  const std::filesystem::path dir(testing::TempDir());

  CorpusRunOptions options;
  options.search.curtail_lambda = 0;
  options.search.deadline_seconds = 0.02;
  options.threads = 4;
  options.reproducer_prefix = (dir / "ps_export_repro_").string();
  options.fault_hook = [](std::size_t i, const BasicBlock&) {
    if (i == 3) throw Error("injected export fault");
  };

  const auto records = run_corpus(params, options);
  ASSERT_EQ(records.size(), params.size());
  EXPECT_FALSE(records[3].error.empty());

  // Any block the deadline curtailed must still carry a valid incumbent.
  const Machine machine = Machine::paper_simulation();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i == 3 || records[i].stats.completed) continue;
    EXPECT_EQ(records[i].stats.curtail_reason, CurtailReason::Deadline) << i;
    const BasicBlock block = generate_block(params[i]);
    const DepGraph dag(block);
    SearchConfig config = options.search;
    const ScheduleResult redo = optimal_schedule(machine, dag, config);
    EXPECT_TRUE(validate_padded(machine, dag, redo.schedule).ok) << i;
  }

  const std::string csv_path = (dir / "ps_export.csv").string();
  const std::string jsonl_path = (dir / "ps_export.jsonl").string();
  const std::string bench_path = (dir / "ps_BENCH_corpus.json").string();
  write_corpus_csv(records, csv_path);
  write_corpus_jsonl(records, jsonl_path);

  const CorpusSummary summary = summarize_corpus(records);
  CorpusBenchMeta meta;
  meta.machine = machine.name();
  meta.curtail_lambda = options.search.curtail_lambda;
  meta.deadline_seconds = options.search.deadline_seconds;
  meta.total_wall_seconds = 1.0;
  write_corpus_bench_json(summary, meta, bench_path);

  const std::string csv = slurp(csv_path);
  const std::string jsonl = slurp(jsonl_path);
  const std::string bench = slurp(bench_path);

  // CSV: header + one line per record; the error row carries the message.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            records.size() + 1);
  EXPECT_NE(csv.find("curtail_reason"), std::string::npos);
  EXPECT_NE(csv.find("injected export fault"), std::string::npos);

  // JSONL: one object per record, fields present and quoted correctly.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(jsonl.begin(), jsonl.end(), '\n')),
            records.size());
  EXPECT_NE(jsonl.find("\"error\":\"injected export fault\""),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"pruned_alpha_beta\":"), std::string::npos);

  // Roll-up: the three columns and the deadline metadata.
  EXPECT_NE(bench.find("\"deadline_seconds\""), std::string::npos);
  EXPECT_NE(bench.find("\"completed\""), std::string::npos);
  EXPECT_NE(bench.find("\"truncated\""), std::string::npos);
  EXPECT_NE(bench.find("\"errors\""), std::string::npos);
  EXPECT_NE(bench.find("\"p50_seconds\""), std::string::npos);
  EXPECT_NE(bench.find("\"p99_seconds\""), std::string::npos);

  // The roll-up is valid JSON, and its exact-integer "metrics" section
  // (the bench_diff gate's correctness fields) reconciles with the
  // records it was written from.
  const JsonValue doc = parse_json_file(bench_path);
  std::uint64_t want_initial = 0, want_final = 0, want_nodes = 0;
  std::size_t want_errors = 0, want_optimal = 0;
  for (const RunRecord& r : records) {
    if (!r.error.empty()) {
      ++want_errors;
      continue;
    }
    if (r.stats.feasible) {
      want_initial += static_cast<std::uint64_t>(r.stats.initial_nops);
      want_final += static_cast<std::uint64_t>(r.stats.best_nops);
    }
    if (r.stats.completed) ++want_optimal;
    want_nodes += r.stats.nodes_expanded;
  }
  auto metric = [&](const char* field) {
    const JsonValue* v = doc.find_path({"metrics", field});
    PS_CHECK(v != nullptr, "roll-up missing metrics." << field);
    return static_cast<std::uint64_t>(v->as_number());
  };
  EXPECT_EQ(metric("blocks"), records.size());
  EXPECT_EQ(metric("errors"), want_errors);
  EXPECT_EQ(metric("optimal_blocks"), want_optimal);
  EXPECT_EQ(metric("total_initial_nops"), want_initial);
  EXPECT_EQ(metric("total_final_nops"), want_final);
  EXPECT_EQ(metric("total_nodes_expanded"), want_nodes);
  // Cross-check against the summary's own count of the same thing.
  const JsonValue* col_curtailed =
      doc.find_path({"total", "curtailed_deadline"});
  ASSERT_NE(col_curtailed, nullptr);
  EXPECT_EQ(metric("curtailed_deadline_blocks"),
            static_cast<std::uint64_t>(col_curtailed->as_number()));

  for (const std::string& p : {csv_path, jsonl_path, bench_path}) {
    std::filesystem::remove(p);
  }
  for (const RunRecord& r : records) {
    if (!r.reproducer.empty()) std::filesystem::remove(r.reproducer);
  }
}

TEST(CorpusRunner, RollupsCountOnlyCompletedSearchesAsOptimalOrInfeasible) {
  // One record per search outcome under a register ceiling. A search
  // curtailed before any schedule fit proves nothing, and a search that
  // proved infeasibility found no optimum, so each roll-up must read one
  // optimal block and one infeasible block.
  auto record = [](bool completed, bool feasible, int final_nops) {
    RunRecord r;
    r.block_size = 10;
    r.stats.initial_nops = 6;
    r.stats.best_nops = final_nops;
    r.stats.completed = completed;
    r.stats.curtail_reason =
        completed ? CurtailReason::None : CurtailReason::Lambda;
    r.stats.feasible = feasible;
    return r;
  };
  const std::vector<RunRecord> records = {
      record(true, true, 3),     // optimal
      record(true, false, -1),   // proven infeasible
      record(false, true, 4),    // curtailed with a schedule
      record(false, false, -1),  // curtailed with none
  };

  const CorpusSummary summary = summarize_corpus(records);
  EXPECT_EQ(summary.total.infeasible, 1u);
  EXPECT_EQ(summary.completed.infeasible, 0u);
  EXPECT_EQ(summary.truncated.infeasible, 0u);
  EXPECT_EQ(summary.completed.runs - summary.completed.infeasible, 1u);
  EXPECT_EQ(summary.total.curtailed_lambda, 2u);

  const std::filesystem::path dir(testing::TempDir());
  const std::string bench_path = (dir / "ps_outcomes_BENCH.json").string();
  const std::string jsonl_path = (dir / "ps_outcomes.jsonl").string();
  write_corpus_bench_json(summary, CorpusBenchMeta{}, bench_path);
  write_corpus_jsonl(records, jsonl_path);
  const JsonValue bench = parse_json_file(bench_path);
  const JsonValue rollup = rollup_from_records(parse_jsonl_file(jsonl_path));
  for (const JsonValue* doc : {&bench, &rollup}) {
    auto metric = [&](const char* field) {
      const JsonValue* v = doc->find_path({"metrics", field});
      PS_CHECK(v != nullptr, "roll-up missing metrics." << field);
      return v->as_int64();
    };
    EXPECT_EQ(metric("blocks"), 4);
    EXPECT_EQ(metric("optimal_blocks"), 1);
    EXPECT_EQ(metric("infeasible_blocks"), 1);
    EXPECT_EQ(metric("curtailed_lambda_blocks"), 2);
    EXPECT_EQ(metric("total_final_nops"), 7);
  }
  std::filesystem::remove(bench_path);
  std::filesystem::remove(jsonl_path);
}

TEST(CorpusRunner, EveryRollupAgreesOnACorpusWithAllFourOutcomes) {
  // The first 200 corpus blocks under a 4-register ceiling at lambda =
  // 300 end in all four outcomes. Table 7's completed column holds the
  // optimal blocks only, and the bench JSON and the JSONL roll-up report
  // the same integer totals.
  std::vector<GeneratorParams> params = corpus_params(CorpusSpec{});
  params.resize(200);
  CorpusRunOptions options;
  options.search.max_live_registers = 4;
  options.search.curtail_lambda = 300;
  options.threads = 2;
  const std::vector<RunRecord> records = run_corpus(params, options);

  std::array<std::size_t, 4> outcomes{};  // indexed by SearchOutcome
  for (const RunRecord& r : records) {
    ASSERT_TRUE(r.error.empty()) << r.error;
    ++outcomes[static_cast<std::size_t>(r.stats.outcome())];
  }
  const auto count = [&](SearchOutcome o) {
    return outcomes[static_cast<std::size_t>(o)];
  };
  EXPECT_EQ(count(SearchOutcome::Optimal), 112u);
  EXPECT_EQ(count(SearchOutcome::Infeasible), 15u);
  EXPECT_EQ(count(SearchOutcome::Curtailed), 32u);
  EXPECT_EQ(count(SearchOutcome::NoSchedule), 41u);

  const CorpusSummary summary = summarize_corpus(records);
  EXPECT_EQ(summary.completed.runs, count(SearchOutcome::Optimal));
  EXPECT_EQ(summary.truncated.runs, count(SearchOutcome::Curtailed) +
                                        count(SearchOutcome::NoSchedule));
  EXPECT_EQ(summary.total.runs, records.size());
  EXPECT_EQ(summary.total.infeasible, count(SearchOutcome::Infeasible));
  EXPECT_EQ(summary.completed.infeasible + summary.truncated.infeasible, 0u);

  const std::filesystem::path dir(testing::TempDir());
  const std::string bench_path = (dir / "ps_four_outcomes_BENCH.json").string();
  const std::string jsonl_path = (dir / "ps_four_outcomes.jsonl").string();
  write_corpus_bench_json(summary, CorpusBenchMeta{}, bench_path);
  write_corpus_jsonl(records, jsonl_path);
  const JsonValue bench = parse_json_file(bench_path);
  const JsonValue rollup = rollup_from_records(parse_jsonl_file(jsonl_path));
  const auto& bench_metrics = bench.find("metrics")->as_object();
  ASSERT_EQ(bench_metrics.size(),
            rollup.find("metrics")->as_object().size());
  for (const auto& [key, value] : bench_metrics) {
    const JsonValue* other = rollup.find_path({"metrics", key});
    ASSERT_NE(other, nullptr) << key;
    EXPECT_EQ(value.as_int64(), other->as_int64()) << key;
  }
  for (SearchOutcome o :
       {SearchOutcome::Optimal, SearchOutcome::Infeasible,
        SearchOutcome::Curtailed, SearchOutcome::NoSchedule}) {
    const std::string key = std::string(search_outcome_name(o)) + "_blocks";
    EXPECT_EQ(bench.find_path({"metrics", key})->as_int64(),
              static_cast<std::int64_t>(count(o)))
        << key;
  }
  std::filesystem::remove(bench_path);
  std::filesystem::remove(jsonl_path);
}

}  // namespace
}  // namespace pipesched
