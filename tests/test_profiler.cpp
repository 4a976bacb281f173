// The sampling profiler, flight recorder, and stall watchdog
// (util/profiler):
//   * disabled mode is silent — markers are inert, no samples accumulate,
//     and nothing leaks into the metrics registry;
//   * phase stacks stay balanced under concurrent push/pop from worker
//     threads, including nesting deeper than the fixed recording depth
//     and enable/disable flips mid-scope;
//   * the sampler's phase shares agree with the annotated wall time on a
//     controlled spin workload, and real searches attribute under "bnb",
//     "split" and "exhaustive";
//   * collapsed-stack output parses (path + count lines, counts summing
//     to the session total) and the phase table's shares sum to ~100%;
//   * the flight-recorder ring keeps the last N heartbeats in order;
//   * the watchdog dumps a stalled search exactly once — and leaves a
//     progressing search alone — and the stall JSON is well-formed.
//
// Test order matters once: DisabledModeIsSilent asserts the registry has
// no ps_profile_samples_total family, so it must run before any test that
// flushes one (gtest runs tests in declaration order within a file).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ir/dag.hpp"
#include "sched/optimal_scheduler.hpp"
#include "sched/scheduler.hpp"
#include "synth/generator.hpp"
#include "util/metrics.hpp"
#include "util/profiler.hpp"
#include "util/timer.hpp"

namespace pipesched {
namespace {

/// Minimal structural JSON check (same contract as test_trace): braces
/// and brackets balance outside string literals, document non-empty. CI
/// additionally round-trips real stall files through python3 -m json.tool.
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

/// Burn wall time inside the current scope. The sink defeats the
/// optimizer; the Timer bounds the loop by time, not iterations, so the
/// test is robust to machine speed.
std::atomic<std::uint64_t> g_spin_sink{0};

void spin_for(double seconds) {
  Timer t;
  std::uint64_t acc = 0;
  while (t.seconds() < seconds) {
    for (int i = 0; i < 1000; ++i) acc += static_cast<std::uint64_t>(i) * 31;
  }
  g_spin_sink.fetch_add(acc, std::memory_order_relaxed);
}

/// Every test starts and ends with the profiler, watchdog, and metrics
/// registry off and empty.
class ProfilerTest : public testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    profiler_disable();
    profiler_clear();
    watchdog_disable();
    metrics_disable();
    metrics_reset();
  }
};

TEST_F(ProfilerTest, DisabledModeIsSilent) {
  metrics_enable();
  {
    PS_PROF_PHASE("ghost");
    { PS_PROF_PHASE("nested_ghost"); }
    spin_for(0.01);
  }
  EXPECT_FALSE(profiler_enabled());
  EXPECT_TRUE(profiler_samples().empty());
  EXPECT_EQ(profiler_total_samples(), 0u);
  EXPECT_EQ(profiler_phase_table(), "");

  // A no-op disable must not flush an empty counter family either.
  profiler_disable();
  for (const MetricsSnapshot::Series& s : metrics_snapshot().series) {
    EXPECT_NE(s.name, "ps_profile_samples_total");
  }

  std::ostringstream out;
  profiler_write_collapsed(out);
  EXPECT_EQ(out.str(), "");
}

TEST_F(ProfilerTest, BalancedPushPopUnderThreads) {
  profiler_enable();
  std::atomic<int> unbalanced{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&unbalanced] {
      for (int i = 0; i < 2000; ++i) {
        PS_PROF_PHASE("level1");
        PS_PROF_PHASE("level2");
        {
          // Nest past kProfilerMaxDepth: frames clamp, depth still
          // counts, and the pops below must rebalance exactly.
          PS_PROF_PHASE("d3");
          PS_PROF_PHASE("d4");
          PS_PROF_PHASE("d5");
          PS_PROF_PHASE("d6");
          PS_PROF_PHASE("d7");
          PS_PROF_PHASE("d8");
          PS_PROF_PHASE("d9");
          PS_PROF_PHASE("d10");
        }
      }
      if (prof_detail::local_stack().depth.load() != 0) {
        unbalanced.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  profiler_disable();
  EXPECT_EQ(unbalanced.load(), 0);

  // Disable mid-scope: the destructor still pops (the marker remembered
  // its stack), so the owning thread's depth returns to zero.
  profiler_enable();
  {
    PS_PROF_PHASE("open_across_disable");
    profiler_disable();
  }
  EXPECT_EQ(prof_detail::local_stack().depth.load(), 0u);

  // Enable mid-scope: a marker constructed while off never pushes, and
  // must not pop either.
  {
    PS_PROF_PHASE("constructed_while_off");
    profiler_enable();
  }
  profiler_disable();
  EXPECT_EQ(prof_detail::local_stack().depth.load(), 0u);
}

TEST_F(ProfilerTest, SamplerAgreesWithAnnotatedSpin) {
  profiler_enable();
  {
    PS_PROF_PHASE("spin_outer");
    { PS_PROF_PHASE("spin_hot"); spin_for(0.30); }
    spin_for(0.10);
  }
  profiler_disable();

  std::uint64_t hot = 0;
  std::uint64_t outer_only = 0;
  for (const ProfileSample& s : profiler_samples()) {
    if (s.path == "spin_outer;spin_hot") hot += s.count;
    if (s.path == "spin_outer") outer_only += s.count;
  }
  const std::uint64_t total = hot + outer_only;
  ASSERT_GT(total, 50u);  // ~400 expected at 997 Hz over 0.4 s
  // spin_hot held 75% of the annotated wall time; allow a generous
  // scheduling-noise band.
  const double hot_share = static_cast<double>(hot) /
                           static_cast<double>(total);
  EXPECT_GT(hot_share, 0.60);
  EXPECT_LT(hot_share, 0.90);
  EXPECT_GT(profiler_sample_period_seconds(), 0.0);
}

TEST_F(ProfilerTest, CollapsedOutputAndPhaseTableParse) {
  profiler_enable();
  {
    PS_PROF_PHASE("outer");
    { PS_PROF_PHASE("inner"); spin_for(0.08); }
    spin_for(0.04);
  }
  profiler_disable();
  ASSERT_GT(profiler_total_samples(), 0u);

  std::ostringstream out;
  profiler_write_collapsed(out);
  std::istringstream lines(out.str());
  std::string line;
  std::uint64_t summed = 0;
  bool saw_outer = false;
  bool saw_nested = false;
  while (std::getline(lines, line)) {
    // Every line is "path count" with a non-empty, space-free path.
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    const std::string path = line.substr(0, space);
    EXPECT_EQ(path.find(' '), std::string::npos) << line;
    const std::string count = line.substr(space + 1);
    ASSERT_FALSE(count.empty()) << line;
    for (char c : count) ASSERT_TRUE(c >= '0' && c <= '9') << line;
    summed += std::strtoull(count.c_str(), nullptr, 10);
    if (path == "outer") saw_outer = true;
    if (path == "outer;inner") saw_nested = true;
  }
  EXPECT_EQ(summed, profiler_total_samples());
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_nested);

  // The phase table reports every path and its shares sum to ~100%.
  const std::string table = profiler_phase_table();
  EXPECT_NE(table.find("outer;inner"), std::string::npos) << table;
  double share_sum = 0;
  std::istringstream rows(table);
  while (std::getline(rows, line)) {
    const std::size_t pct = line.rfind('%');
    if (pct == std::string::npos) continue;
    const std::size_t start = line.find_last_of(' ', pct);
    ASSERT_NE(start, std::string::npos) << line;
    share_sum += std::atof(line.substr(start + 1, pct - start - 1).c_str());
  }
  EXPECT_NEAR(share_sum, 100.0, 1.0) << table;
}

TEST_F(ProfilerTest, RealSearchAttributesUnderBnb) {
  metrics_enable();
  profiler_enable();
  Timer wall;
  SearchConfig config;
  config.curtail_lambda = 500000;
  std::uint64_t seed = 9000;
  // Keep searching fresh blocks until the sampler has had real time to
  // observe the annotated search phases.
  while (wall.seconds() < 0.25) {
    GeneratorParams params;
    params.statements = 14;
    params.variables = 5;
    params.seed = seed++;
    const BasicBlock block = generate_block(params);
    const DepGraph dag(block);
    optimal_schedule(Machine::paper_simulation(), dag, config);
  }
  profiler_disable();

  std::uint64_t bnb = 0;
  for (const ProfileSample& s : profiler_samples()) {
    if (s.path.rfind("bnb", 0) == 0) bnb += s.count;
  }
  EXPECT_GT(bnb, 0u);

  // profiler_disable flushed per-top-level-phase counters into the
  // enabled registry.
  const MetricsSnapshot snapshot = metrics_snapshot();
  EXPECT_GT(snapshot.value_or_zero("ps_profile_samples_total",
                                   {{"phase", "bnb"}}),
            0.0);
}

// The window splitter and the exhaustive search each enter a phase named
// after them at their search entry, as B&B enters "bnb", so a profiled run
// of either one samples its search.
TEST_F(ProfilerTest, SplitAndExhaustiveSearchesEnterTheirPhases) {
  const std::pair<SchedulerKind, std::string> kinds[] = {
      {SchedulerKind::Split, "split"},
      {SchedulerKind::Exhaustive, "exhaustive"}};
  for (const auto& [kind, phase] : kinds) {
    profiler_enable();
    Timer wall;
    SearchConfig config;
    config.curtail_lambda = 500000;
    config.split_window = 12;
    std::uint64_t seed = 9000;
    while (wall.seconds() < 0.25) {
      GeneratorParams params;
      params.statements = 14;
      params.variables = 5;
      params.seed = seed++;
      const BasicBlock block = generate_block(params);
      const DepGraph dag(block);
      run_scheduler(kind, Machine::paper_simulation(), dag, config);
    }
    profiler_disable();

    std::uint64_t samples = 0;
    for (const ProfileSample& s : profiler_samples()) {
      if (s.path.rfind(phase, 0) == 0) samples += s.count;
    }
    EXPECT_GT(samples, 0u) << phase;
  }
}

TEST_F(ProfilerTest, RingKeepsLastHeartbeatsInOrder) {
  SearchMonitor monitor("ring_test");
  EXPECT_STREQ(monitor.label(), "ring_test");
  const std::size_t pushes = SearchMonitor::kRingCapacity + 10;
  for (std::size_t i = 1; i <= pushes; ++i) {
    monitor.heartbeat(/*nodes=*/i * 1024, /*incumbent_nops=*/
                      static_cast<int>(pushes - i), /*depth=*/
                      static_cast<std::uint32_t>(i), /*cache_probes=*/2 * i,
                      /*cache_hits=*/i);
  }
  const std::vector<HeartbeatSnapshot> ring = monitor.ring();
  ASSERT_EQ(ring.size(), SearchMonitor::kRingCapacity);
  // Oldest surviving entry is push #11; newest is the final push.
  EXPECT_EQ(ring.front().nodes, 11u * 1024u);
  EXPECT_EQ(ring.back().nodes, pushes * 1024u);
  for (std::size_t i = 1; i < ring.size(); ++i) {
    EXPECT_GT(ring[i].nodes, ring[i - 1].nodes);
    EXPECT_GE(ring[i].t_us, ring[i - 1].t_us);
  }
  EXPECT_EQ(ring.back().depth, pushes);
  EXPECT_EQ(ring.back().incumbent_nops, 0);
}

TEST_F(ProfilerTest, WatchdogDumpsStalledSearchOnceAndSparesProgress) {
  // CI overrides the stall-JSON path so it can round-trip the file
  // through python3 -m json.tool after the test run.
  const char* env_path = std::getenv("PS_TEST_STALL_JSON");
  const std::string stall_path =
      env_path && env_path[0] != '\0'
          ? std::string(env_path)
          : std::string(testing::TempDir()) + "ps_test_stall.json";

  const std::uint64_t before = watchdog_stall_count();
  SearchMonitor stalled("bnb");
  stalled.heartbeat(4096, 7, 12, 3, 1);  // ...then silence: a stall

  std::atomic<bool> stop{false};
  std::thread progressing_search([&stop] {
    SearchMonitor progressing("cp");
    std::uint64_t nodes = 0;
    while (!stop.load()) {
      progressing.heartbeat(nodes += 1024, -1, 3, 0, 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  watchdog_enable(/*seconds=*/0.1, stall_path);
  EXPECT_TRUE(watchdog_enabled());
  Timer wall;
  while (watchdog_stall_count() == before && wall.seconds() < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(watchdog_stall_count(), before + 1);

  // The dump is one-shot: the stalled monitor stays stalled, yet no
  // second dump arrives, and the progressing search is never dumped.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(watchdog_stall_count(), before + 1);
  stop.store(true);
  progressing_search.join();
  watchdog_disable();
  EXPECT_FALSE(watchdog_enabled());

  std::ifstream in(stall_path);
  ASSERT_TRUE(in.is_open()) << stall_path;
  std::ostringstream content;
  content << in.rdbuf();
  const std::string json = content.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"label\""), std::string::npos);
  EXPECT_NE(json.find("bnb"), std::string::npos);
  EXPECT_NE(json.find("\"ring\""), std::string::npos);
  EXPECT_NE(json.find("\"phase_stacks\""), std::string::npos);
  // The flight recorder captured the stalled search's last heartbeat.
  EXPECT_NE(json.find("4096"), std::string::npos);
}

TEST_F(ProfilerTest, WatchdogIgnoresHealthyHeartbeats) {
  const std::uint64_t before = watchdog_stall_count();
  std::atomic<bool> stop{false};
  std::thread healthy([&stop] {
    SearchMonitor monitor("bnb");
    std::uint64_t nodes = 0;
    while (!stop.load()) {
      monitor.heartbeat(nodes += 1024, -1, 2, 0, 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  watchdog_enable(/*seconds=*/0.08);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  healthy.join();
  watchdog_disable();
  EXPECT_EQ(watchdog_stall_count(), before);
}

}  // namespace
}  // namespace pipesched
