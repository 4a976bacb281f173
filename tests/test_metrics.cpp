// Tests for the process-wide metrics registry: typed instruments,
// per-thread sharded accumulation, exposition formats, and the exact
// reconciliation between registry totals and SearchStats.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/compiler.hpp"
#include "core/corpus_runner.hpp"
#include "frontend/codegen.hpp"
#include "frontend/parser.hpp"
#include "ir/dag.hpp"
#include "prometheus_grammar.hpp"
#include "sched/optimal_scheduler.hpp"
#include "synth/corpus.hpp"
#include "synth/generator.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace pipesched {
namespace {

/// Every test runs against the one process-wide registry, so each starts
/// from a clean slate and leaves metrics disabled.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics_enable();
    metrics_reset();
  }
  void TearDown() override {
    metrics_disable();
    metrics_reset();
  }
};

TEST_F(MetricsTest, CounterCountsAndResets) {
  Counter& c = metrics_counter("test_counter_basic_total");
  EXPECT_EQ(c.value(), 0u);
  c.increment();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.add(0);
  EXPECT_EQ(c.value(), 42u);
  metrics_reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(MetricsTest, DisabledInstrumentsDropUpdates) {
  Counter& c = metrics_counter("test_counter_disabled_total");
  Gauge& g = metrics_gauge("test_gauge_disabled");
  LogHistogram& h = metrics_histogram("test_histo_disabled_seconds");
  metrics_disable();
  c.increment();
  g.set(7);
  h.observe(0.5);
  metrics_enable();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.totals().count, 0u);
}

TEST_F(MetricsTest, MultiThreadedHammerSumsExactly) {
  Counter& c = metrics_counter("test_counter_hammer_total");
  LogHistogram& h = metrics_histogram("test_histo_hammer_seconds");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kIncrements; ++i) {
        c.increment();
        h.observe(0.001);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  const LogHistogram::Totals totals = h.totals();
  EXPECT_EQ(totals.count,
            static_cast<std::uint64_t>(kThreads) * kIncrements);
  EXPECT_NEAR(totals.sum, kThreads * kIncrements * 0.001, 1e-6);
}

TEST_F(MetricsTest, DuplicateRegistrationReturnsSameInstrument) {
  Counter& a = metrics_counter("test_counter_dup_total", {{"k", "v"}});
  Counter& b = metrics_counter("test_counter_dup_total", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  // Label order does not matter: sorted at registration.
  Counter& c = metrics_counter("test_counter_dup_total",
                               {{"z", "1"}, {"a", "2"}});
  Counter& d = metrics_counter("test_counter_dup_total",
                               {{"a", "2"}, {"z", "1"}});
  EXPECT_EQ(&c, &d);
  EXPECT_NE(&a, &c);
}

TEST_F(MetricsTest, LabelCardinalityKeepsSeriesIndependent) {
  Counter& x = metrics_counter("test_counter_labels_total", {{"rule", "x"}});
  Counter& y = metrics_counter("test_counter_labels_total", {{"rule", "y"}});
  x.add(3);
  y.add(5);
  EXPECT_EQ(x.value(), 3u);
  EXPECT_EQ(y.value(), 5u);
  const MetricsSnapshot snapshot = metrics_snapshot();
  EXPECT_EQ(snapshot.value_or_zero("test_counter_labels_total",
                                   {{"rule", "x"}}),
            3.0);
  EXPECT_EQ(snapshot.value_or_zero("test_counter_labels_total",
                                   {{"rule", "y"}}),
            5.0);
}

TEST_F(MetricsTest, TypeConflictAndBadNamesThrow) {
  metrics_counter("test_conflict_total");
  EXPECT_THROW(metrics_gauge("test_conflict_total"), Error);
  // Same family, different labels, different type: still a conflict.
  EXPECT_THROW(metrics_histogram("test_conflict_total", {{"a", "b"}}),
               Error);
  EXPECT_THROW(metrics_counter(""), Error);
  EXPECT_THROW(metrics_counter("0starts_with_digit"), Error);
  EXPECT_THROW(metrics_counter("has-dash"), Error);
  EXPECT_THROW(metrics_counter("ok_name", {{"0bad", "v"}}), Error);
  EXPECT_THROW(metrics_counter("ok_name", {{"le", "v"}}), Error);
  EXPECT_THROW(metrics_counter("ok_name", {{"dup", "1"}, {"dup", "2"}}),
               Error);
}

TEST_F(MetricsTest, GaugeSetAndAdd) {
  Gauge& g = metrics_gauge("test_gauge_basic");
  g.set(4.5);
  EXPECT_EQ(g.value(), 4.5);
  g.add(1.5);
  EXPECT_EQ(g.value(), 6.0);
  g.add(-6.0);
  EXPECT_EQ(g.value(), 0.0);
}

TEST(LogHistogramBuckets, BoundariesAreExact) {
  // Bucket k covers (2^(k-1), 2^k]: an exact power of two belongs to the
  // bucket it bounds.
  const int base = -LogHistogram::kMinExp;  // index of le=2^0
  EXPECT_EQ(LogHistogram::bucket_index(1.0), base);
  EXPECT_EQ(LogHistogram::bucket_index(2.0), base + 1);
  EXPECT_EQ(LogHistogram::bucket_index(1.0000001), base + 1);
  EXPECT_EQ(LogHistogram::bucket_index(0.5), base - 1);
  EXPECT_EQ(LogHistogram::bucket_index(0.500001), base);
  // Tiny and non-positive values land in the first bucket.
  EXPECT_EQ(LogHistogram::bucket_index(0.0), 0);
  EXPECT_EQ(LogHistogram::bucket_index(-3.0), 0);
  EXPECT_EQ(LogHistogram::bucket_index(1e-12), 0);
  EXPECT_EQ(LogHistogram::bucket_index(std::ldexp(1.0, LogHistogram::kMinExp)),
            0);
  // Values beyond the largest finite bound overflow to +Inf.
  EXPECT_EQ(LogHistogram::bucket_index(
                std::ldexp(1.0, LogHistogram::kMaxExp)),
            LogHistogram::kBuckets - 2);
  EXPECT_EQ(LogHistogram::bucket_index(
                std::ldexp(1.0, LogHistogram::kMaxExp) * 1.01),
            LogHistogram::kBuckets - 1);
  // bucket_le is consistent with bucket_index: a value lands in the
  // first bucket whose upper bound is >= the value.
  for (int i = 0; i + 1 < LogHistogram::kBuckets; ++i) {
    EXPECT_EQ(LogHistogram::bucket_index(LogHistogram::bucket_le(i)), i);
  }
  EXPECT_TRUE(std::isinf(
      LogHistogram::bucket_le(LogHistogram::kBuckets - 1)));
}

TEST_F(MetricsTest, HistogramCumulativeBucketsInSnapshot) {
  LogHistogram& h = metrics_histogram("test_histo_cumulative_seconds");
  h.observe(0.75);  // bucket le=1
  h.observe(1.0);   // bucket le=1 (boundary)
  h.observe(1.5);   // bucket le=2
  const MetricsSnapshot snapshot = metrics_snapshot();
  const MetricsSnapshot::Series* s =
      snapshot.find("test_histo_cumulative_seconds");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 3u);
  EXPECT_NEAR(s->sum, 3.25, 1e-12);
  const auto le1 =
      static_cast<std::size_t>(LogHistogram::bucket_index(1.0));
  EXPECT_EQ(s->buckets[le1], 2u);      // cumulative: <= 1
  EXPECT_EQ(s->buckets[le1 + 1], 3u);  // <= 2
  EXPECT_EQ(s->buckets.back(), 3u);    // +Inf always equals count
}

TEST_F(MetricsTest, PrometheusExportPassesGrammarCheck) {
  metrics_counter("test_prom_counter_total", {{"rule", "alpha_beta"}},
                  "help text with \\ backslash")
      .add(7);
  metrics_counter("test_prom_counter_total", {{"rule", "window"}}).add(2);
  metrics_gauge("test_prom_gauge", {}, "a gauge").set(1.25);
  metrics_histogram("test_prom_seconds", {{"stage", "parse"}}, "seconds")
      .observe(0.01);
  std::ostringstream out;
  metrics_snapshot().write_prometheus(out);
  check_prometheus_grammar(out.str());
  // Spot-check the histogram expansion.
  const std::string text = out.str();
  EXPECT_NE(text.find("test_prom_seconds_bucket{stage=\"parse\",le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_seconds_sum{stage=\"parse\"}"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_seconds_count{stage=\"parse\"}"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_seconds histogram"),
            std::string::npos);
}

TEST_F(MetricsTest, PrometheusEscapesLabelValues) {
  metrics_counter("test_prom_escape_total",
                  {{"msg", "a\"b\\c\nd"}})
      .increment();
  std::ostringstream out;
  metrics_snapshot().write_prometheus(out);
  EXPECT_NE(out.str().find("msg=\"a\\\"b\\\\c\\nd\""), std::string::npos);
}

TEST_F(MetricsTest, JsonExportRoundTripsThroughParser) {
  metrics_counter("test_json_counter_total", {{"k", "v"}}).add(9);
  metrics_gauge("test_json_gauge").set(-2.5);
  metrics_histogram("test_json_seconds").observe(0.25);
  std::ostringstream out;
  metrics_snapshot().write_json(out);
  const JsonValue doc = parse_json(out.str());
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  bool found = false;
  for (const JsonValue& c : counters->as_array()) {
    if (c.find("name")->as_string() != "test_json_counter_total") continue;
    found = true;
    EXPECT_EQ(c.find("value")->as_number(), 9.0);
    EXPECT_EQ(c.find("labels")->find("k")->as_string(), "v");
  }
  EXPECT_TRUE(found);
  const JsonValue* histograms = doc.find("histograms");
  ASSERT_NE(histograms, nullptr);
  bool histo_found = false;
  for (const JsonValue& h : histograms->as_array()) {
    if (h.find("name")->as_string() != "test_json_seconds") continue;
    histo_found = true;
    EXPECT_EQ(h.find("count")->as_number(), 1.0);
    const auto& buckets = h.find("buckets")->as_array();
    ASSERT_EQ(buckets.size(),
              static_cast<std::size_t>(LogHistogram::kBuckets));
    EXPECT_EQ(buckets.back().find("le")->as_string(), "+Inf");
    EXPECT_EQ(buckets.back().find("count")->as_number(), 1.0);
  }
  EXPECT_TRUE(histo_found);
}

TEST_F(MetricsTest, WriteDispatchesOnExtension) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "ps_metrics_write_test";
  fs::create_directories(dir);
  metrics_counter("test_write_total").add(3);

  const std::string prom = (dir / "out.prom").string();
  const std::string json = (dir / "out.json").string();
  metrics_write(prom);
  metrics_write(json);
  std::ifstream promf(prom);
  std::stringstream promtext;
  promtext << promf.rdbuf();
  EXPECT_NE(promtext.str().find("test_write_total 3"), std::string::npos);
  EXPECT_EQ(parse_json_file(json)
                .find("counters")
                ->as_array()
                .empty(),
            false);
  EXPECT_THROW(metrics_write((dir / "out.csv").string()), Error);
  fs::remove_all(dir);
}

TEST_F(MetricsTest, SummaryLineCountsKinds) {
  // Registrations persist for the process lifetime, so count deltas
  // rather than absolute numbers (other tests register instruments too).
  auto parse_counts = [] {
    const std::string line = metrics_summary_line();
    int series = 0, counters = 0, gauges = 0, histograms = 0;
    const int got = std::sscanf(
        line.c_str(), "metrics: %d series (%d counters, %d gauges, %d",
        &series, &counters, &gauges, &histograms);
    EXPECT_EQ(got, 4) << line;
    return std::array<int, 4>{series, counters, gauges, histograms};
  };
  const auto before = parse_counts();
  metrics_counter("test_summary_a_total");
  metrics_counter("test_summary_b_total");
  metrics_gauge("test_summary_gauge");
  metrics_histogram("test_summary_seconds");
  const auto after = parse_counts();
  EXPECT_EQ(after[0], before[0] + 4);
  EXPECT_EQ(after[1], before[1] + 2);
  EXPECT_EQ(after[2], before[2] + 1);
  EXPECT_EQ(after[3], before[3] + 1);
}

TEST_F(MetricsTest, SearchTotalsExactlyEqualSearchStats) {
  // Run a few searches and check the registry's totals are exactly the
  // sum of the per-search SearchStats counters — the reconciliation
  // property the instrumentation promises.
  CorpusSpec spec;
  spec.total_runs = 12;
  const std::vector<GeneratorParams> params = corpus_params(spec);
  const Machine machine = Machine::paper_simulation();
  SearchConfig config;
  config.curtail_lambda = 5000;

  SearchStats sum;
  std::uint64_t searches = 0;
  std::uint64_t curtailed = 0;
  for (const GeneratorParams& p : params) {
    const BasicBlock block = generate_block(p);
    if (block.empty()) continue;
    const DepGraph dag(block);
    const ScheduleResult result = optimal_schedule(machine, dag, config);
    ++searches;
    sum.nodes_expanded += result.stats.nodes_expanded;
    sum.omega_calls += result.stats.omega_calls;
    sum.schedules_examined += result.stats.schedules_examined;
    sum.incumbent_improvements += result.stats.incumbent_improvements;
    sum.pruned_window += result.stats.pruned_window;
    sum.pruned_readiness += result.stats.pruned_readiness;
    sum.pruned_equivalence += result.stats.pruned_equivalence;
    sum.pruned_alpha_beta += result.stats.pruned_alpha_beta;
    sum.pruned_lower_bound += result.stats.pruned_lower_bound;
    sum.pruned_dominance += result.stats.pruned_dominance;
    sum.pruned_pressure += result.stats.pruned_pressure;
    sum.cache_probes += result.stats.cache_probes;
    sum.cache_hits += result.stats.cache_hits;
    sum.cache_misses += result.stats.cache_misses;
    if (result.stats.curtail_reason == CurtailReason::Lambda) ++curtailed;
  }
  ASSERT_GT(searches, 0u);

  const MetricsSnapshot snapshot = metrics_snapshot();
  auto total = [&](const char* name, MetricLabels labels = {}) {
    return static_cast<std::uint64_t>(
        snapshot.value_or_zero(name, labels));
  };
  EXPECT_EQ(total("ps_search_runs_total"), searches);
  EXPECT_EQ(total("ps_search_nodes_expanded_total"), sum.nodes_expanded);
  EXPECT_EQ(total("ps_search_omega_calls_total"), sum.omega_calls);
  EXPECT_EQ(total("ps_search_schedules_examined_total"),
            sum.schedules_examined);
  EXPECT_EQ(total("ps_search_incumbent_improvements_total"),
            sum.incumbent_improvements);
  EXPECT_EQ(total("ps_search_pruned_total", {{"rule", "window"}}),
            sum.pruned_window);
  EXPECT_EQ(total("ps_search_pruned_total", {{"rule", "readiness"}}),
            sum.pruned_readiness);
  EXPECT_EQ(total("ps_search_pruned_total", {{"rule", "equivalence"}}),
            sum.pruned_equivalence);
  EXPECT_EQ(total("ps_search_pruned_total", {{"rule", "alpha_beta"}}),
            sum.pruned_alpha_beta);
  EXPECT_EQ(total("ps_search_pruned_total", {{"rule", "lower_bound"}}),
            sum.pruned_lower_bound);
  EXPECT_EQ(total("ps_search_pruned_total", {{"rule", "dominance"}}),
            sum.pruned_dominance);
  EXPECT_EQ(total("ps_search_pruned_total", {{"rule", "pressure"}}),
            sum.pruned_pressure);
  EXPECT_EQ(total("ps_search_cache_events_total", {{"event", "probe"}}),
            sum.cache_probes);
  EXPECT_EQ(total("ps_search_cache_events_total", {{"event", "hit"}}),
            sum.cache_hits);
  EXPECT_EQ(total("ps_search_cache_events_total", {{"event", "miss"}}),
            sum.cache_misses);
  EXPECT_EQ(total("ps_search_curtailed_total", {{"reason", "lambda"}}),
            curtailed);
  const MetricsSnapshot::Series* seconds =
      snapshot.find("ps_search_seconds");
  ASSERT_NE(seconds, nullptr);
  EXPECT_EQ(seconds->count, searches);
}

TEST_F(MetricsTest, CorpusSummaryRendersTheSameWithMetricsOnAndOff) {
  // The summary shows its argument only. A line read from the registry
  // would count every corpus the process had run so far, beneath a table
  // of this one.
  CorpusSpec spec;
  spec.total_runs = 12;
  CorpusRunOptions options;
  options.search.curtail_lambda = 2000;
  options.threads = 1;
  const CorpusSummary summary =
      summarize_corpus(run_corpus(corpus_params(spec), options));
  const std::string with_metrics = render_corpus_summary(summary);
  metrics_disable();
  const std::string without_metrics = render_corpus_summary(summary);
  EXPECT_EQ(with_metrics, without_metrics);
}

TEST_F(MetricsTest, ThreadPoolMetricsCountTasks) {
  const MetricsSnapshot before = metrics_snapshot();
  const double tasks_before =
      before.value_or_zero("ps_thread_pool_tasks_total");
  {
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    for (int i = 0; i < 10; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 10);
  }
  const MetricsSnapshot after = metrics_snapshot();
  EXPECT_EQ(after.value_or_zero("ps_thread_pool_tasks_total"),
            tasks_before + 10);
  // All submitted work drained, so the queue-depth gauge is back to its
  // starting level.
  EXPECT_EQ(after.value_or_zero("ps_thread_pool_queue_depth"),
            before.value_or_zero("ps_thread_pool_queue_depth"));
}

TEST_F(MetricsTest, CompileStagesObserveDurations) {
  const auto expect_observed = [](std::initializer_list<const char*> stages) {
    const MetricsSnapshot snapshot = metrics_snapshot();
    for (const char* stage : stages) {
      const MetricsSnapshot::Series* s = snapshot.find(
          "ps_compile_stage_seconds", {{"stage", stage}});
      ASSERT_NE(s, nullptr) << stage;
      EXPECT_GE(s->count, 1u) << stage;
    }
  };
  CompileOptions options;
  const CompileResult result = compile_source(
      "a = x + y;\nb = a * z;\nc = b + a;\n", options);
  EXPECT_FALSE(result.assembly.empty());
  expect_observed(
      {"parse", "optimize", "dag_build", "schedule", "regalloc", "emit"});

  // The register-limited path starts from tuples and spills this block
  // to fit three registers.
  metrics_reset();
  options.registers = 3;
  const RegisterLimitedResult limited = compile_with_register_limit(
      generate_tuples(parse_source("a = x + y;\nb = z * w;\nc = a + b;\n"
                                   "d = a * b;\n")),
      options);
  EXPECT_FALSE(limited.compiled.assembly.empty());
  EXPECT_GE(limited.values_spilled, 1);
  expect_observed(
      {"optimize", "spill", "dag_build", "schedule", "regalloc", "emit"});
}

}  // namespace
}  // namespace pipesched
