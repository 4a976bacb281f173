// Correctness of the branch-and-bound scheduler (paper Section 4.2.3):
// with the curtail point disabled it must find exactly the exhaustive
// optimum, under every combination of pruning rules, machines and random
// blocks — the pruning rules are only allowed to cut *provably equivalent
// or worse* schedules. The exhaustive scheduler's own budget is checked
// here too: on a block far too large to enumerate, lambda and the
// deadline must each stop it with a legal schedule, and it must report
// its seed's NOPs and flush its counters like the exact backends do.
// Finally, run_scheduler must return, for every kind, what the policy's
// own function returns.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "ir/dag.hpp"
#include "sched/cp_scheduler.hpp"
#include "sched/exhaustive_scheduler.hpp"
#include "sched/greedy_scheduler.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/optimal_scheduler.hpp"
#include "sched/split_scheduler.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"
#include "util/metrics.hpp"

namespace pipesched {
namespace {

SearchConfig unlimited() {
  SearchConfig c;
  c.curtail_lambda = 0;
  return c;
}

struct PropertyCase {
  std::string machine;
  std::uint64_t seed;
};

std::string case_name(const testing::TestParamInfo<PropertyCase>& info) {
  std::string name =
      info.param.machine + "_seed" + std::to_string(info.param.seed);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class OptimalVsExhaustive : public testing::TestWithParam<PropertyCase> {};

TEST_P(OptimalVsExhaustive, MatchesGroundTruthOnSmallBlocks) {
  const PropertyCase& param = GetParam();
  const Machine machine = Machine::preset(param.machine);

  // Small statement counts keep blocks <= ~12 instructions, where the
  // exhaustive search is still tractable.
  for (int statements = 2; statements <= 5; ++statements) {
    GeneratorParams params;
    params.statements = statements;
    params.variables = 3;
    params.constants = 2;
    params.seed = param.seed * 1000 + static_cast<std::uint64_t>(statements);
    const BasicBlock block = generate_block(params);
    if (block.empty() || block.size() > 12) continue;
    const DepGraph dag(block);

    const ScheduleResult truth = exhaustive_schedule(machine, dag);
    ASSERT_TRUE(truth.stats.completed);
    const int optimum = truth.schedule.total_nops();

    const ScheduleResult result = optimal_schedule(machine, dag, unlimited());
    EXPECT_TRUE(result.stats.completed);
    EXPECT_EQ(result.schedule.total_nops(), optimum)
        << "machine=" << param.machine << " seed=" << params.seed
        << " statements=" << statements << "\n"
        << block.to_string();
    EXPECT_TRUE(dag.is_legal_order(result.schedule.order));
  }
}

TEST_P(OptimalVsExhaustive, EveryPruningComboPreservesOptimality) {
  const PropertyCase& param = GetParam();
  const Machine machine = Machine::preset(param.machine);

  GeneratorParams params;
  params.statements = 4;
  params.variables = 3;
  params.constants = 2;
  params.seed = param.seed;
  const BasicBlock block = generate_block(params);
  if (block.empty() || block.size() > 12) GTEST_SKIP();
  const DepGraph dag(block);

  const int optimum =
      exhaustive_schedule(machine, dag).schedule.total_nops();

  for (int mask = 0; mask < 32; ++mask) {
    SearchConfig config = unlimited();
    config.alpha_beta = mask & 1;
    config.equivalence_prune = mask & 2;
    config.strong_equivalence = mask & 4;
    config.lower_bound_prune = mask & 8;
    config.seed_with_list_schedule = mask & 16;
    const ScheduleResult result = optimal_schedule(machine, dag, config);
    EXPECT_EQ(result.schedule.total_nops(), optimum)
        << "machine=" << param.machine << " seed=" << param.seed
        << " pruning mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OptimalVsExhaustive,
    testing::ValuesIn([] {
      std::vector<PropertyCase> cases;
      for (const std::string& machine : Machine::preset_names()) {
        for (std::uint64_t seed = 1; seed <= 12; ++seed) {
          cases.push_back({machine, seed});
        }
      }
      return cases;
    }()),
    case_name);

TEST(Optimal, NeverWorseThanHeuristics) {
  // Property over larger random blocks: optimal <= greedy and
  // optimal <= list, and all three are legal orders.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    GeneratorParams params;
    params.statements = 8;
    params.variables = 5;
    params.constants = 3;
    params.seed = seed;
    const BasicBlock block = generate_block(params);
    if (block.empty()) continue;
    const DepGraph dag(block);
    const Machine machine = Machine::paper_simulation();

    const Schedule list = list_schedule(machine, dag);
    const Schedule greedy = greedy_schedule(machine, dag);
    SearchConfig config;
    config.curtail_lambda = 200000;
    const ScheduleResult best = optimal_schedule(machine, dag, config);

    EXPECT_LE(best.schedule.total_nops(), list.total_nops()) << "seed " << seed;
    EXPECT_LE(best.schedule.total_nops(), greedy.total_nops())
        << "seed " << seed;
    EXPECT_TRUE(dag.is_legal_order(best.schedule.order));
  }
}

TEST(Optimal, CurtailPointBoundsWork) {
  // A lambda of 1 stops after a single placement attempt; the result must
  // still be the (legal) seed schedule.
  GeneratorParams params;
  params.statements = 10;
  params.variables = 4;
  params.constants = 2;
  params.seed = 7;
  const BasicBlock block = generate_block(params);
  const DepGraph dag(block);
  const Machine machine = Machine::paper_simulation();

  SearchConfig config;
  config.curtail_lambda = 1;
  const ScheduleResult result = optimal_schedule(machine, dag, config);
  EXPECT_LE(result.stats.omega_calls, 1u);
  EXPECT_TRUE(dag.is_legal_order(result.schedule.order));
  EXPECT_EQ(result.schedule.total_nops(), result.stats.initial_nops);
}

TEST(Optimal, CurtailedSearchReportsTruncation) {
  // Find a block where lambda=2 genuinely truncates (initial != optimal).
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 60 && !found; ++seed) {
    GeneratorParams params;
    params.statements = 9;
    params.variables = 4;
    params.constants = 2;
    params.seed = seed;
    const BasicBlock block = generate_block(params);
    if (block.empty()) continue;
    const DepGraph dag(block);
    const Machine machine = Machine::paper_simulation();

    SearchConfig full;
    full.curtail_lambda = 0;
    const int optimum =
        optimal_schedule(machine, dag, full).schedule.total_nops();
    const int initial = list_schedule(machine, dag).total_nops();
    if (initial == optimum) continue;

    SearchConfig tiny;
    tiny.curtail_lambda = 2;
    const ScheduleResult truncated = optimal_schedule(machine, dag, tiny);
    EXPECT_FALSE(truncated.stats.completed);
    EXPECT_GE(truncated.schedule.total_nops(), optimum);
    found = true;
  }
  EXPECT_TRUE(found) << "no block with improvable seed schedule found";
}

/// A generated 30-statement block: far too many legal orders to enumerate.
BasicBlock thirty_statement_block() {
  GeneratorParams params;
  params.statements = 30;
  params.variables = 8;
  params.constants = 3;
  params.seed = 11;
  return generate_block(params);
}

TEST(Exhaustive, LambdaCapsCompleteOrders) {
  const BasicBlock block = thirty_statement_block();
  const DepGraph dag(block);
  const Machine machine = Machine::paper_simulation();
  SearchConfig config;
  config.curtail_lambda = 1000;
  metrics_enable();
  const MetricsSnapshot before = metrics_snapshot();
  const ScheduleResult result =
      run_scheduler(SchedulerKind::Exhaustive, machine, dag, config);
  const MetricsSnapshot after = metrics_snapshot();
  metrics_disable();
  // One flush per run, carrying the run's own counters.
  const auto delta = [&](const char* name) {
    return after.value_or_zero(name) - before.value_or_zero(name);
  };
  EXPECT_EQ(delta("ps_search_runs_total"), 1.0);
  EXPECT_EQ(delta("ps_search_omega_calls_total"),
            static_cast<double>(result.stats.omega_calls));
  EXPECT_EQ(delta("ps_search_nodes_expanded_total"),
            static_cast<double>(result.stats.nodes_expanded));
  // initial_nops is the seed order's cost, as under the exact backends,
  // not the best order's.
  EXPECT_EQ(result.stats.initial_nops,
            evaluate_order(machine, dag, seed_order(dag, config)).total_nops());
  EXPECT_FALSE(result.stats.completed);
  EXPECT_EQ(result.stats.curtail_reason, CurtailReason::Lambda);
  EXPECT_LE(result.stats.omega_calls, 1000u);
  EXPECT_EQ(result.stats.schedules_examined, result.stats.omega_calls);
  EXPECT_TRUE(dag.is_legal_order(result.schedule.order));
  EXPECT_TRUE(validate_padded(machine, dag, result.schedule).ok);
  EXPECT_EQ(result.stats.best_nops, result.schedule.total_nops());
}

TEST(Exhaustive, CurtailedRunIsNeverWorseThanItsSeed) {
  // The seed order is the enumeration's first incumbent, so stopping
  // after 1,000 complete orders cannot return a costlier schedule.
  const BasicBlock block = thirty_statement_block();
  const DepGraph dag(block);
  SearchConfig config;
  config.curtail_lambda = 1000;
  const ScheduleResult result = run_scheduler(
      SchedulerKind::Exhaustive, Machine::paper_simulation(), dag, config);
  EXPECT_FALSE(result.stats.completed);
  EXPECT_LE(result.stats.best_nops, result.stats.initial_nops);
}

TEST(Exhaustive, CountsIncumbentImprovements) {
  // A six-tuple block whose seed is one NOP above the optimum: the
  // enumeration must count the order that beats its seed incumbent.
  GeneratorParams params;
  params.statements = 5;
  params.variables = 3;
  params.constants = 2;
  params.seed = 3;
  const BasicBlock block = generate_block(params);
  ASSERT_EQ(block.size(), 6u);
  const DepGraph dag(block);
  SearchConfig config;
  config.curtail_lambda = 0;
  const ScheduleResult result = run_scheduler(
      SchedulerKind::Exhaustive, Machine::paper_simulation(), dag, config);
  EXPECT_TRUE(result.stats.completed);
  EXPECT_LT(result.stats.best_nops, result.stats.initial_nops);
  EXPECT_GE(result.stats.incumbent_improvements, 1u);
}

TEST(Exhaustive, DeadlineStopsAnUncappedEnumeration) {
  const BasicBlock block = thirty_statement_block();
  const DepGraph dag(block);
  const Machine machine = Machine::paper_simulation();
  SearchConfig config;
  config.curtail_lambda = 0;
  config.deadline_seconds = 0.05;
  const ScheduleResult result =
      run_scheduler(SchedulerKind::Exhaustive, machine, dag, config);
  EXPECT_FALSE(result.stats.completed);
  EXPECT_EQ(result.stats.curtail_reason, CurtailReason::Deadline);
  EXPECT_GT(result.stats.schedules_examined, 0u);
  EXPECT_LT(result.stats.seconds, 5.0);
  EXPECT_TRUE(dag.is_legal_order(result.schedule.order));
  EXPECT_TRUE(validate_padded(machine, dag, result.schedule).ok);
}

TEST(Optimal, ZeroNopSeedShortCircuits) {
  // A block whose list schedule already needs no NOPs must return
  // immediately with zero search nodes.
  BasicBlock block;
  for (int i = 0; i < 6; ++i) {
    block.append(Opcode::Const, Operand::of_imm(i));
  }
  const DepGraph dag(block);
  const ScheduleResult result =
      optimal_schedule(Machine::paper_simulation(), dag, SearchConfig{});
  EXPECT_EQ(result.schedule.total_nops(), 0);
  EXPECT_EQ(result.stats.omega_calls, 0u);
  EXPECT_TRUE(result.stats.completed);
}

TEST(Optimal, StatsAreInternallyConsistent) {
  GeneratorParams params;
  params.statements = 7;
  params.variables = 4;
  params.constants = 2;
  params.seed = 3;
  const BasicBlock block = generate_block(params);
  const DepGraph dag(block);
  SearchConfig config;
  config.curtail_lambda = 100000;
  const ScheduleResult result =
      optimal_schedule(Machine::paper_simulation(), dag, config);
  EXPECT_LE(result.stats.best_nops, result.stats.initial_nops);
  EXPECT_EQ(result.stats.best_nops, result.schedule.total_nops());
  EXPECT_GE(result.stats.omega_calls, result.stats.schedules_examined);
}

TEST(Optimal, FindsKnownOptimalReordering) {
  // Hand-checked case on risc-classic (loader latency 4, alu latency 1):
  // two independent (load -> neg -> store) chains. The naive order
  //   La Na Lb Nb Sa Sb
  // stalls 3 cycles before each Neg (total 6 NOPs); interleaving
  //   La Lb Na Nb Sa Sb
  // hides all but 2 of the load-latency cycles.
  const Machine machine = Machine::risc_classic();
  BasicBlock block;
  const VarId a = block.var_id("a");
  const VarId b = block.var_id("b");
  const TupleIndex la = block.append(Opcode::Load, Operand::of_var(a));
  const TupleIndex na = block.append(Opcode::Neg, Operand::of_ref(la));
  const TupleIndex lb = block.append(Opcode::Load, Operand::of_var(b));
  const TupleIndex nb = block.append(Opcode::Neg, Operand::of_ref(lb));
  block.append(Opcode::Store, Operand::of_var(a), Operand::of_ref(na));
  block.append(Opcode::Store, Operand::of_var(b), Operand::of_ref(nb));
  const DepGraph dag(block);

  const Schedule naive = evaluate_order(
      machine, dag, {la, na, lb, nb, static_cast<TupleIndex>(4),
                     static_cast<TupleIndex>(5)});
  SearchConfig config;
  config.curtail_lambda = 0;
  const ScheduleResult best = optimal_schedule(machine, dag, config);
  EXPECT_LT(best.schedule.total_nops(), naive.total_nops());
  EXPECT_EQ(best.schedule.total_nops(),
            exhaustive_schedule(machine, dag).schedule.total_nops());
}

TEST(RunScheduler, EachKindMatchesItsDirectCall) {
  GeneratorParams params;
  params.statements = 5;
  params.variables = 3;
  params.constants = 2;
  params.seed = 3;
  const BasicBlock block = generate_block(params);
  ASSERT_LE(block.size(), 9u);  // small enough to enumerate
  const DepGraph dag(block);
  std::vector<TupleIndex> identity(dag.size());
  std::iota(identity.begin(), identity.end(), TupleIndex{0});

  for (const Machine& machine :
       {Machine::paper_simulation(), Machine::asymmetric_alus()}) {
    SearchConfig bnb;
    bnb.curtail_lambda = 0;
    SearchConfig cp = bnb;
    cp.backend = OptimalBackend::Cp;
    const auto expect_same = [&](SchedulerKind kind,
                                 const SearchConfig& config,
                                 const ScheduleResult& direct) {
      const ScheduleResult r = run_scheduler(kind, machine, dag, config);
      const std::string where = std::string(scheduler_kind_name(kind)) +
                                "/" + optimal_backend_name(config.backend) +
                                " on " + machine.name();
      EXPECT_EQ(r.schedule.order, direct.schedule.order) << where;
      EXPECT_EQ(r.schedule.total_nops(), direct.schedule.total_nops())
          << where;
      EXPECT_EQ(r.stats.initial_nops, direct.stats.initial_nops) << where;
      EXPECT_EQ(r.stats.best_nops, direct.stats.best_nops) << where;
      EXPECT_EQ(r.stats.omega_calls, direct.stats.omega_calls) << where;
      EXPECT_EQ(r.stats.nodes_expanded, direct.stats.nodes_expanded)
          << where;
      EXPECT_EQ(r.stats.outcome(), direct.stats.outcome()) << where;
      EXPECT_EQ(r.stats.curtail_reason, direct.stats.curtail_reason)
          << where;
    };
    // The heuristics report their one schedule as both seed and best, and
    // never claim a proof: no exhaustive search ran, and no budget ran
    // out.
    const auto heuristic = [](Schedule schedule) {
      ScheduleResult r;
      r.stats.initial_nops = r.stats.best_nops = schedule.total_nops();
      r.stats.completed = false;
      r.stats.curtail_reason = CurtailReason::None;
      r.schedule = std::move(schedule);
      return r;
    };
    expect_same(SchedulerKind::Original, bnb,
                heuristic(evaluate_order(machine, dag, identity)));
    expect_same(SchedulerKind::List, bnb,
                heuristic(list_schedule(machine, dag)));
    expect_same(SchedulerKind::Greedy, bnb,
                heuristic(greedy_schedule(machine, dag)));

    expect_same(SchedulerKind::Optimal, bnb,
                optimal_schedule(machine, dag, bnb));
    expect_same(SchedulerKind::Optimal, cp, cp_schedule(machine, dag, cp));
    // The Exhaustive kind runs the seeded enumeration; the oracle, which
    // starts from no incumbent, may keep another optimal order, but
    // never another cost.
    const ScheduleResult seeded = exhaustive_search(machine, dag, bnb);
    expect_same(SchedulerKind::Exhaustive, bnb, seeded);
    expect_same(SchedulerKind::Split, bnb, split_schedule(machine, dag, bnb));
    const ScheduleResult oracle = exhaustive_schedule(machine, dag);
    ASSERT_TRUE(oracle.stats.completed);
    EXPECT_EQ(seeded.schedule.total_nops(), oracle.schedule.total_nops())
        << machine.name();
  }
}

}  // namespace
}  // namespace pipesched
