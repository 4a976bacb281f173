// Differential oracle for the branch-and-bound scheduler and its
// state-dominance cache.
//
// Three layers of cross-checking, all on small synthetic blocks where the
// exhaustive scheduler is tractable ground truth:
//
//   1. Oracle equality: on ~500 generated blocks across every machine
//      preset, the branch-and-bound optimum equals the exhaustive optimum
//      with the cache enabled AND disabled — an unsound dominance prune
//      (one that discards all optima of some state) fails here.
//   2. Cache on/off agreement under a register-pressure ceiling: both
//      configurations must report the same `feasible` flag and, when
//      feasible, the same optimal cost — pressure feasibility is a
//      function of the placed set, so the cache may never flip it.
//   3. Telemetry invariants on a fixed-seed corpus: the SearchStats
//      counters must stay internally consistent (hits + misses == probes;
//      nodes expanded with the cache <= without; probes bounded by
//      expansions), so a silent telemetry regression fails loudly.
//
// A unit check of the cache's verification word rides along: a 64-bit key
// collision between two distinct states must degrade to a miss, never a
// dominance prune.
#include <gtest/gtest.h>

#include "core/corpus_runner.hpp"
#include "ir/dag.hpp"
#include "sched/exhaustive_scheduler.hpp"
#include "sched/optimal_scheduler.hpp"
#include "synth/corpus.hpp"
#include "synth/generator.hpp"
#include "util/dominance_cache.hpp"

namespace pipesched {
namespace {

SearchConfig exhaustion(bool cache) {
  SearchConfig config;
  config.curtail_lambda = 0;
  config.dominance_cache = cache;
  return config;
}

TEST(Differential, OptimalMatchesExhaustiveOracleCacheOnAndOff) {
  const auto& machines = Machine::preset_names();
  int checked = 0;
  for (std::uint64_t seed = 1; checked < 500 && seed <= 6000; ++seed) {
    const Machine machine =
        Machine::preset(machines[seed % machines.size()]);
    GeneratorParams params;
    params.statements = 2 + static_cast<int>(seed % 4);
    params.variables = 3;
    params.constants = 2;
    params.seed = seed * 7919;
    const BasicBlock block = generate_block(params);
    if (block.empty() || block.size() > 11) continue;
    const DepGraph dag(block);

    // Ground truth; skip the rare block whose legal-order count explodes.
    const ScheduleResult truth = exhaustive_schedule(machine, dag, 300000);
    if (!truth.stats.completed) continue;
    const int optimum = truth.schedule.total_nops();

    const ScheduleResult with_cache =
        optimal_schedule(machine, dag, exhaustion(true));
    const ScheduleResult without_cache =
        optimal_schedule(machine, dag, exhaustion(false));

    ASSERT_TRUE(with_cache.stats.completed);
    ASSERT_TRUE(without_cache.stats.completed);
    ASSERT_EQ(with_cache.schedule.total_nops(), optimum)
        << "cache ON diverges from exhaustive oracle: machine="
        << machine.name() << " seed=" << params.seed << "\n"
        << block.to_string();
    ASSERT_EQ(without_cache.schedule.total_nops(), optimum)
        << "cache OFF diverges from exhaustive oracle: machine="
        << machine.name() << " seed=" << params.seed;
    ASSERT_EQ(with_cache.stats.feasible, without_cache.stats.feasible);
    ASSERT_TRUE(dag.is_legal_order(with_cache.schedule.order));
    ++checked;
  }
  EXPECT_GE(checked, 500) << "generator produced too few oracle blocks";
}

TEST(Differential, CacheAgreesUnderRegisterPressure) {
  // Feasibility under a register ceiling depends only on the scheduled
  // set, never on the path that built it — so cache on/off must agree on
  // `feasible` and, when feasible, on the optimal cost. Ceilings 3..5
  // cover infeasible, barely-feasible and comfortable blocks.
  int feasible_seen = 0;
  int infeasible_seen = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    GeneratorParams params;
    params.statements = 3 + static_cast<int>(seed % 3);
    params.variables = 4;
    params.constants = 2;
    params.seed = seed * 104729;
    const BasicBlock block = generate_block(params);
    if (block.empty() || block.size() > 10) continue;
    const DepGraph dag(block);
    const Machine machine = Machine::paper_simulation();

    for (int ceiling = 3; ceiling <= 5; ++ceiling) {
      SearchConfig on = exhaustion(true);
      on.max_live_registers = ceiling;
      SearchConfig off = exhaustion(false);
      off.max_live_registers = ceiling;

      const ScheduleResult r_on = optimal_schedule(machine, dag, on);
      const ScheduleResult r_off = optimal_schedule(machine, dag, off);
      ASSERT_EQ(r_on.stats.feasible, r_off.stats.feasible)
          << "seed=" << params.seed << " ceiling=" << ceiling;
      if (r_on.stats.feasible) {
        ASSERT_EQ(r_on.schedule.total_nops(), r_off.schedule.total_nops())
            << "seed=" << params.seed << " ceiling=" << ceiling;
        ++feasible_seen;
      } else {
        ++infeasible_seen;
      }
    }
  }
  // The sweep must have exercised both outcomes to mean anything.
  EXPECT_GT(feasible_seen, 0);
  EXPECT_GT(infeasible_seen, 0);
}

TEST(CacheTelemetry, CountersAreInternallyConsistent) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    GeneratorParams params;
    params.statements = 6 + static_cast<int>(seed % 5);
    params.variables = 4;
    params.constants = 2;
    params.seed = seed;
    const BasicBlock block = generate_block(params);
    if (block.empty()) continue;
    const DepGraph dag(block);
    const Machine machine = Machine::paper_simulation();

    SearchConfig on = exhaustion(true);
    on.curtail_lambda = 200000;
    SearchConfig off = exhaustion(false);
    off.curtail_lambda = 200000;

    const ScheduleResult r_on = optimal_schedule(machine, dag, on);
    const ScheduleResult r_off = optimal_schedule(machine, dag, off);

    // Cache-side ledger.
    EXPECT_EQ(r_on.stats.cache_hits + r_on.stats.cache_misses,
              r_on.stats.cache_probes)
        << "seed " << seed;
    // One probe per non-root, non-leaf expansion.
    EXPECT_LE(r_on.stats.cache_probes, r_on.stats.nodes_expanded)
        << "seed " << seed;
    // Every hit prunes a subtree, so the cached search can only shrink.
    EXPECT_LE(r_on.stats.nodes_expanded, r_off.stats.nodes_expanded)
        << "seed " << seed;
    EXPECT_LE(r_on.stats.omega_calls, r_off.stats.omega_calls)
        << "seed " << seed;
    // Disabled cache must report dead-zero telemetry.
    EXPECT_EQ(r_off.stats.cache_probes, 0u);
    EXPECT_EQ(r_off.stats.cache_hits, 0u);
    EXPECT_EQ(r_off.stats.cache_evictions, 0u);
    // And both must agree on the result when both completed.
    if (r_on.stats.completed && r_off.stats.completed) {
      EXPECT_EQ(r_on.schedule.total_nops(), r_off.schedule.total_nops())
          << "seed " << seed;
    }
  }
}

TEST(CacheTelemetry, CorpusRunnerThreadsCacheCounters) {
  // The aggregation path must carry the new counters end to end: run a
  // small fixed corpus and check the summary's cache columns are live.
  CorpusSpec spec;
  spec.total_runs = 60;
  CorpusRunOptions options;
  options.machine = Machine::paper_simulation();
  options.search.curtail_lambda = 20000;
  options.threads = 2;
  const auto records = run_corpus(corpus_params(spec), options);

  std::uint64_t probes = 0, hits = 0, nodes = 0;
  for (const RunRecord& r : records) {
    probes += r.stats.cache_probes;
    hits += r.stats.cache_hits;
    nodes += r.stats.nodes_expanded;
    EXPECT_LE(r.stats.cache_hits, r.stats.cache_probes);
  }
  EXPECT_GT(nodes, 0u);
  EXPECT_GT(probes, 0u);

  const CorpusSummary summary = summarize_corpus(records);
  EXPECT_GT(summary.total.average(&SearchStats::nodes_expanded), 0.0);
  if (hits > 0) {
    EXPECT_GT(summary.total.cache_hit_percent, 0.0);
  }
  const std::string rendered = render_corpus_summary(summary);
  EXPECT_NE(rendered.find("Nodes Expanded"), std::string::npos);
  EXPECT_NE(rendered.find("Cache Hit Rate"), std::string::npos);
}

TEST(DominanceCache, ForcedCollisionIsRejectedNotTrusted) {
  // The regression this guards: before the verification word, an entry
  // matched on the bare 64-bit key, so two distinct states colliding on
  // the full word were treated as transpositions — and the second one's
  // subtree was unsoundly pruned. Plant an entry, then probe with the
  // SAME key but a DIFFERENT verify word (a simulated full-word
  // collision): the probe must miss, be counted as a verified reject,
  // and coexist as its own entry afterwards.
  DominanceCache cache(kSearchMemoBytes);
  const std::uint64_t key = hash64(0xDEADBEEF);
  const std::uint64_t verify_a = hash64_alt(0xDEADBEEF);
  const std::uint64_t verify_b = hash64_alt(0xFEEDFACE);
  ASSERT_NE(verify_a, verify_b);

  EXPECT_FALSE(cache.probe_and_update(key, verify_a, 5, 10));  // plant
  // Colliding stranger, same depth, equal cost: a key-only cache would
  // answer "dominated" here and prune. The verified cache must not.
  EXPECT_FALSE(cache.probe_and_update(key, verify_b, 5, 10));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().verified_rejects, 1u);

  // Both states now live side by side and each matches only itself.
  EXPECT_TRUE(cache.probe_and_update(key, verify_a, 5, 10));
  EXPECT_TRUE(cache.probe_and_update(key, verify_b, 5, 10));
  EXPECT_EQ(cache.stats().hits, 2u);
  // The two self-hits each walked past the other's entry first.
  EXPECT_GE(cache.stats().verified_rejects, 2u);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses,
            cache.stats().probes);
}

TEST(DominanceCache, EverySearchStartsOnAnEmptyTable) {
  // Each cache borrows its thread's initial table and takes the next
  // 16-bit generation, so a state an earlier search stored reads as
  // unknown. The generation comes round again after 65,535 searches, so
  // the wrap must clear the table: kKept is stored once and probed again
  // exactly one cycle later. A second cache alive on the same thread
  // starts on its own table.
  constexpr std::uint64_t kKey = 1000;
  constexpr std::uint64_t kKept = kKey + 512;  // another probe window
  constexpr int kCycle = 65535;
  for (int search = 0; search <= kCycle; ++search) {
    DominanceCache cache(kSearchMemoBytes);
    ASSERT_FALSE(cache.probe_and_update(kKey, 1, 3, 7)) << search;
    ASSERT_TRUE(cache.probe_and_update(kKey, 1, 3, 7)) << search;
    if (search == 0 || search == kCycle) {
      EXPECT_FALSE(cache.probe_and_update(kKept, 2, 3, 7)) << search;
    }
    if (search == 1) {
      DominanceCache nested(kSearchMemoBytes);
      EXPECT_FALSE(nested.probe_and_update(kKey, 1, 3, 7));
    }
  }
}

}  // namespace
}  // namespace pipesched
