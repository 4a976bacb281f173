// The structured trace layer (util/trace) and the live progress
// reporter (util/progress):
//   * disabled mode records nothing (spans/counters are inert);
//   * enabled spans balance — every PS_TRACE_SPAN yields one complete
//     event whose [ts, ts+dur] nests inside its parent's — and the
//     exported file is well-formed JSON;
//   * concurrent spans from parallel_for_each workers land on distinct
//     per-thread track ids;
//   * the search heartbeat and corpus instrumentation emit their counter
//     tracks end-to-end;
//   * ProgressReporter renders sane output on a non-tty stream and
//     rate-limits tty redraws.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <sstream>
#include <set>
#include <string>
#include <vector>

#include "core/corpus_runner.hpp"
#include "ir/dag.hpp"
#include "sched/cp_scheduler.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/optimal_scheduler.hpp"
#include "synth/generator.hpp"
#include "util/progress.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace pipesched {
namespace {

/// One heartbeat's search/* counter samples. Every heartbeat starts with
/// search/nodes_expanded and ends with search/depth.
struct Heartbeat {
  double nodes = 0;
  std::optional<double> incumbent;
  double depth = -1;
};

std::vector<Heartbeat> heartbeats(const std::vector<TraceEvent>& events) {
  std::vector<Heartbeat> beats;
  for (const TraceEvent& e : events) {
    if (e.name == "search/nodes_expanded") {
      beats.emplace_back().nodes = e.value;
    } else if (e.name == "search/incumbent_nops" && !beats.empty()) {
      beats.back().incumbent = e.value;
    } else if (e.name == "search/depth" && !beats.empty()) {
      beats.back().depth = e.value;
    }
  }
  return beats;
}

/// Minimal structural JSON check: braces/brackets balance outside string
/// literals and the document is non-empty. (CI additionally validates
/// real trace files with `python3 -m json.tool`.)
bool json_balanced(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty() && !text.empty();
}

/// Every test starts and ends with a quiet, empty collector.
class TraceTest : public testing::Test {
 protected:
  void SetUp() override {
    trace_disable();
    trace_clear();
  }
  void TearDown() override {
    trace_disable();
    trace_clear();
  }
};

TEST_F(TraceTest, DisabledModeEmitsNothing) {
  {
    PS_TRACE_SPAN("should_not_appear");
    trace_counter("ctr", 42.0);
    trace_instant("marker");
    trace_set_thread_name("ghost");
  }
  EXPECT_FALSE(trace_enabled());
  EXPECT_TRUE(trace_snapshot().empty());

  std::ostringstream out;
  trace_write_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_EQ(json.find("should_not_appear"), std::string::npos);
  EXPECT_EQ(json.find("ghost"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
}

TEST_F(TraceTest, BalancedNestedSpansAndValidJson) {
  trace_enable();
  {
    PS_TRACE_SPAN("outer");
    {
      PS_TRACE_SPAN("inner");
      trace_counter("ctr", 7.5);
    }
  }
  trace_disable();

  const std::vector<TraceEvent> events = trace_snapshot();
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  const TraceEvent* ctr = nullptr;
  for (const TraceEvent& e : events) {
    if (e.name == "outer") outer = &e;
    if (e.name == "inner") inner = &e;
    if (e.name == "ctr") ctr = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(ctr, nullptr);
  EXPECT_EQ(outer->phase, TraceEvent::Phase::Complete);
  EXPECT_EQ(inner->phase, TraceEvent::Phase::Complete);
  EXPECT_EQ(ctr->phase, TraceEvent::Phase::Counter);
  EXPECT_DOUBLE_EQ(ctr->value, 7.5);

  // The inner complete event nests inside the outer one.
  EXPECT_GE(inner->ts_us, outer->ts_us);
  EXPECT_LE(inner->ts_us + inner->dur_us, outer->ts_us + outer->dur_us);
  // Same thread, same track.
  EXPECT_EQ(inner->tid, outer->tid);

  std::ostringstream out;
  trace_write_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST_F(TraceTest, ConcurrentWorkersLandOnDistinctTracks) {
  trace_enable();
  ThreadPool pool(4);
  // Rendezvous: every task spins until all four have entered its span,
  // forcing four distinct worker threads to record concurrently.
  std::atomic<int> arrived{0};
  parallel_for_each(pool, 4, [&](std::size_t) {
    PS_TRACE_SPAN("worker_span");
    arrived.fetch_add(1);
    while (arrived.load() < 4) {
    }
  });
  trace_disable();

  std::set<std::uint32_t> tids;
  for (const TraceEvent& e : trace_snapshot()) {
    if (e.name == "worker_span") tids.insert(e.tid);
  }
  EXPECT_EQ(tids.size(), 4u);

  // The pool's workers named their tracks; the metadata reaches the file.
  std::ostringstream out;
  trace_write_json(out);
  EXPECT_NE(out.str().find("pool-worker-"), std::string::npos);
  EXPECT_NE(out.str().find("\"ph\":\"M\""), std::string::npos);
  EXPECT_TRUE(json_balanced(out.str()));
}

TEST_F(TraceTest, EnableResetsPreviousSession) {
  trace_enable();
  { PS_TRACE_SPAN("first_session"); }
  trace_disable();
  ASSERT_FALSE(trace_snapshot().empty());

  trace_enable();
  { PS_TRACE_SPAN("second_session"); }
  trace_disable();
  const std::vector<TraceEvent> events = trace_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "second_session");
}

TEST_F(TraceTest, SearchHeartbeatEmitsCounterTracks) {
  GeneratorParams params;
  params.statements = 10;
  params.variables = 4;
  params.constants = 2;
  params.seed = 42;
  const BasicBlock block = generate_block(params);
  ASSERT_FALSE(block.empty());
  const DepGraph dag(block);

  trace_enable();
  const ScheduleResult result =
      optimal_schedule(Machine::paper_simulation(), dag, SearchConfig{});
  trace_disable();
  EXPECT_GE(result.stats.nodes_expanded, 1u);

  bool saw_nodes = false, saw_depth = false, saw_span = false;
  for (const TraceEvent& e : trace_snapshot()) {
    if (e.name == "search/nodes_expanded") {
      saw_nodes = true;
      EXPECT_EQ(e.phase, TraceEvent::Phase::Counter);
      EXPECT_GT(e.value, 0.0);
    }
    if (e.name == "search/depth") saw_depth = true;
    if (e.name == "optimal_search") saw_span = true;
  }
  // Even a search that finishes inside the first 1,024-node tick emits
  // one final heartbeat sample.
  EXPECT_TRUE(saw_nodes);
  EXPECT_TRUE(saw_depth);
  EXPECT_TRUE(saw_span);

  // The CP backend sends the same end-of-search heartbeat.
  SearchConfig cp;
  cp.backend = OptimalBackend::Cp;
  trace_enable();
  const ScheduleResult cp_result =
      cp_schedule(Machine::paper_simulation(), dag, cp);
  trace_disable();
  ASSERT_LT(cp_result.stats.nodes_expanded, 1024u);  // a sub-tick search
  const std::vector<Heartbeat> cp_beats = heartbeats(trace_snapshot());
  ASSERT_EQ(cp_beats.size(), 1u);
  EXPECT_EQ(cp_beats[0].nodes,
            static_cast<double>(cp_result.stats.nodes_expanded));
  EXPECT_EQ(cp_beats[0].incumbent,
            std::optional<double>(cp_result.stats.best_nops));

  // Under a register ceiling that the list seed breaks, CP first walks
  // for an order that fits.
  GeneratorParams walk_params;
  walk_params.statements = 20;
  walk_params.variables = 12;
  walk_params.constants = 2;
  walk_params.seed = 3;
  const BasicBlock walk_block = generate_block(walk_params);
  const DepGraph walk_dag(walk_block);
  const Machine machine = Machine::paper_simulation();
  const std::vector<TupleIndex> list_order = list_schedule_order(walk_dag);
  const int seed_nops =
      evaluate_order(machine, walk_dag, list_order).total_nops();
  SearchConfig config;
  config.backend = OptimalBackend::Cp;
  config.curtail_lambda = 0;
  config.max_live_registers = 5;
  ASSERT_TRUE(breaks_register_ceiling(walk_dag, list_order, config));

  trace_enable();
  const ScheduleResult walked = cp_schedule(machine, walk_dag, config);
  trace_disable();
  ASSERT_TRUE(walked.stats.completed);
  ASSERT_TRUE(walked.stats.feasible);
  ASSERT_NE(walked.stats.initial_nops, seed_nops);

  // The heartbeats before the first incumbent sample come from the
  // pressure walk, which runs while the list seed is the only schedule
  // and breaks the ceiling: none may report it as the incumbent, and they
  // report the walk's own depth. From the walk's repaired order on, every
  // heartbeat carries an incumbent no worse than that order.
  const std::vector<Heartbeat> beats = heartbeats(trace_snapshot());
  std::size_t walk = 0;
  while (walk < beats.size() && !beats[walk].incumbent) ++walk;
  ASSERT_GE(walk, 1u);
  ASSERT_LT(walk, beats.size());
  bool walk_depth = false;
  for (std::size_t i = 0; i < walk; ++i) walk_depth |= beats[i].depth > 0;
  EXPECT_TRUE(walk_depth);
  EXPECT_NE(*beats[walk].incumbent, seed_nops);
  for (std::size_t i = walk; i < beats.size(); ++i) {
    ASSERT_TRUE(beats[i].incumbent) << "heartbeat " << i;
    EXPECT_LE(*beats[i].incumbent, walked.stats.initial_nops);
  }
  // The end-of-search heartbeat covers every expanded node.
  EXPECT_EQ(beats.back().nodes,
            static_cast<double>(walked.stats.nodes_expanded));
}

TEST_F(TraceTest, CorpusRunTracesBlocksAndProgressCounter) {
  std::vector<GeneratorParams> params;
  for (int i = 0; i < 12; ++i) {
    GeneratorParams p;
    p.statements = 6;
    p.variables = 4;
    p.seed = 500 + static_cast<std::uint64_t>(i);
    params.push_back(p);
  }
  CorpusRunOptions options;
  options.search.curtail_lambda = 2000;
  options.threads = 3;

  trace_enable();
  const std::vector<RunRecord> records = run_corpus(params, options);
  trace_disable();
  ASSERT_EQ(records.size(), params.size());

  std::size_t block_spans = 0;
  double max_done = 0;
  for (const TraceEvent& e : trace_snapshot()) {
    if (e.name == "corpus_block" &&
        e.phase == TraceEvent::Phase::Complete) {
      ++block_spans;
    }
    if (e.name == "corpus/blocks_done") max_done = std::max(max_done, e.value);
  }
  EXPECT_EQ(block_spans, params.size());
  EXPECT_DOUBLE_EQ(max_done, static_cast<double>(params.size()));
}

TEST(ProgressReporter, NonTtyStreamWritesCompleteLines) {
  std::ostringstream out;
  {
    ProgressReporter progress(5, out, /*tty=*/false);
    for (int i = 0; i < 5; ++i) progress.add(/*errored=*/i == 2);
    EXPECT_EQ(progress.done(), 5u);
    EXPECT_EQ(progress.errors(), 1u);
    progress.finish();
  }
  const std::string text = out.str();
  EXPECT_NE(text.find("5/5"), std::string::npos);
  EXPECT_NE(text.find("(100%)"), std::string::npos);
  EXPECT_NE(text.find("1 errored"), std::string::npos);
  EXPECT_NE(text.find("blocks/s"), std::string::npos);
  // Non-tty mode never uses in-place carriage-return redraws.
  EXPECT_EQ(text.find('\r'), std::string::npos);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
}

TEST(ProgressReporter, TtyModeRateLimitsRedraws) {
  std::ostringstream out;
  ProgressReporter progress(100, out, /*tty=*/true,
                            /*min_redraw_seconds=*/3600.0);
  for (int i = 0; i < 99; ++i) progress.add();
  progress.finish();
  // First add() draws (nothing drawn yet), every other add() is inside
  // the redraw window, finish() draws the final line: exactly two.
  const std::string text = out.str();
  std::size_t redraws = 0;
  for (char c : text) {
    if (c == '\r') ++redraws;
  }
  EXPECT_EQ(redraws, 2u);
  EXPECT_NE(text.find("99/100"), std::string::npos);
}

TEST(ProgressReporter, SnapshotReportsLiveStateMidRun) {
  std::ostringstream out;
  ProgressReporter progress(8, out, /*tty=*/false);
  progress.add();
  progress.add(/*errored=*/true);
  progress.add();
  const ProgressSnapshot snap = progress.snapshot();
  EXPECT_EQ(snap.done, 3u);
  EXPECT_EQ(snap.total, 8u);
  EXPECT_EQ(snap.errors, 1u);
  EXPECT_FALSE(snap.finished);
  EXPECT_GT(snap.elapsed_seconds, 0.0);
  EXPECT_GT(snap.rate_per_second, 0.0);
  // rate = done/elapsed and eta = remaining/rate, consistently.
  EXPECT_NEAR(snap.rate_per_second, 3.0 / snap.elapsed_seconds, 1e-9);
  EXPECT_NEAR(snap.eta_seconds, 5.0 / snap.rate_per_second, 1e-9);
  progress.finish();
  EXPECT_TRUE(progress.snapshot().finished);
}

TEST(ProgressReporter, SilentModeCountsWithoutOutput) {
  ProgressReporter progress(4);  // no stream: snapshot-only
  progress.add();
  progress.add();
  const ProgressSnapshot snap = progress.snapshot();
  EXPECT_EQ(snap.done, 2u);
  EXPECT_EQ(snap.total, 4u);
  progress.finish();  // must not crash or write anywhere
}

TEST(ProgressReporter, RegistryServesInnermostLiveReporter) {
  ProgressSnapshot snap;
  {
    ProgressReporter outer(100);
    outer.add();
    {
      // Innermost live reporter wins (the current run).
      ProgressReporter inner(7);
      inner.add();
      inner.add();
      ASSERT_TRUE(current_progress(&snap));
      EXPECT_EQ(snap.total, 7u);
      EXPECT_EQ(snap.done, 2u);
    }
    // Inner died: the registry falls back to the outer reporter.
    ASSERT_TRUE(current_progress(&snap));
    EXPECT_EQ(snap.total, 100u);
    EXPECT_EQ(snap.done, 1u);
  }
  // No live reporters at all (assuming no other test leaks one).
  EXPECT_FALSE(current_progress(&snap));
}

TEST(ProgressReporter, FinishAllFinishesEveryLiveReporter) {
  ProgressReporter a(3);
  ProgressReporter b(5);
  a.add();
  progress_finish_all();
  EXPECT_TRUE(a.snapshot().finished);
  EXPECT_TRUE(b.snapshot().finished);
  progress_finish_all();  // idempotent
}

TEST(ProgressReporter, FinishIsIdempotentAndScopedSafe) {
  std::ostringstream out;
  {
    ProgressReporter progress(2, out, /*tty=*/false);
    progress.add();
    progress.add();
    progress.finish();
    progress.finish();  // second call must not re-render
  }  // destructor also calls finish()
  const std::string text = out.str();
  // Exactly one final summary line (only the final render appends the
  // total wall time), despite two finish() calls plus the destructor.
  std::size_t count = 0;
  for (std::size_t pos = text.find("s total"); pos != std::string::npos;
       pos = text.find("s total", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

}  // namespace
}  // namespace pipesched
