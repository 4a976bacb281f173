// Cross-solver differential oracle: the CP backend and the
// branch-and-bound backend implement the same optimization problem with
// disjoint search strategies and pruning theories, so on any (block,
// machine) pair they must report the same optimal NOP count — or both
// prove pressure-infeasibility. Thousands of randomized pairs, every
// returned schedule validated cycle-level on the simulator, make this
// the strongest correctness anchor in the suite: a bug in either
// backend's propagation or pruning rules shows up as a disagreement
// long before it would be noticed in an end-to-end run.
//
// On mismatch the failure message carries the full generator parameters,
// machine description and tuple block, and the block is additionally
// dumped in `psc --tuples` replay form next to the test binary.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "ir/dag.hpp"
#include "regalloc/regalloc.hpp"
#include "sched/cp_scheduler.hpp"
#include "sched/optimal_scheduler.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"
#include "util/rng.hpp"

namespace pipesched {
namespace {

/// Same randomized-machine idiom as test_fuzz: 1-4 pipelines with
/// independent latency/enqueue, each opcode mapped to a random non-empty
/// unit subset (or left sigma-empty) so heterogeneous-alternative
/// branching is exercised, not just the symmetric presets.
Machine random_machine(Rng& rng) {
  Machine machine("diff-random");
  const int units = 1 + static_cast<int>(rng.next_below(4));
  for (int u = 0; u < units; ++u) {
    machine.add_pipeline(std::string("u").append(std::to_string(u)),
                         1 + static_cast<int>(rng.next_below(6)),
                         1 + static_cast<int>(rng.next_below(4)));
  }
  for (Opcode op : {Opcode::Load, Opcode::Mov, Opcode::Neg, Opcode::Add,
                    Opcode::Sub, Opcode::Mul, Opcode::Div}) {
    if (!rng.next_bool(0.8)) continue;
    std::vector<PipelineId> subset;
    for (int u = 0; u < units; ++u) {
      if (rng.next_bool()) subset.push_back(u);
    }
    if (subset.empty()) subset.push_back(static_cast<PipelineId>(
        rng.next_below(static_cast<std::uint64_t>(units))));
    machine.map_op(op, subset);
  }
  return machine;
}

/// Everything needed to replay one pair by hand, inlined into the
/// assertion output so a CI log alone reproduces the failure.
std::string describe_case(std::size_t pair, const GeneratorParams& params,
                          const Machine& machine, const BasicBlock& block,
                          int max_live) {
  std::ostringstream oss;
  oss << "pair " << pair << ": generator{seed=" << params.seed
      << ", statements=" << params.statements
      << ", variables=" << params.variables
      << ", constants=" << params.constants
      << ", optimize=" << params.optimize << "}, max_live=" << max_live
      << "\nmachine:\n" << machine.to_string() << "block:\n"
      << block.to_string();
  return oss.str();
}

/// Best-effort `psc --tuples` replay dump for the failing pair.
void dump_reproducer(std::size_t pair, const GeneratorParams& params,
                     const BasicBlock& block) {
  const std::string path =
      "cp_differential_pair_" + std::to_string(pair) + ".tuples";
  std::ofstream out(path);
  if (!out.good()) return;
  out << "; cp/bnb differential mismatch, generator seed " << params.seed
      << "\n; replay: psc --tuples " << path << "\n" << block.to_string();
}

/// Cycle-level validation of one returned schedule: legal order, padded
/// form hazard-free, and interlock stalls equal to the NOPs the backend
/// claims it inserted.
void validate_schedule(const Machine& machine, const DepGraph& dag,
                       const Schedule& schedule, const char* backend,
                       const std::string& context) {
  ASSERT_TRUE(dag.is_legal_order(schedule.order)) << backend << "\n"
                                                  << context;
  const SimResult padded = validate_padded(machine, dag, schedule);
  ASSERT_TRUE(padded.ok) << backend << ": " << padded.error << "\n"
                         << context;
  const SimResult interlocked =
      machine.has_heterogeneous_alternatives()
          ? simulate_interlocked(machine, dag, schedule.order, schedule.unit)
          : simulate_interlocked(machine, dag, schedule.order);
  ASSERT_EQ(interlocked.total_delay, schedule.total_nops())
      << backend << "\n" << context;
}

TEST(CpDifferential, AgreesWithBranchAndBoundAtScale) {
  Rng rng(0xD1FFC0DE);
  const std::vector<std::string> presets = Machine::preset_names();
  std::size_t pairs = 0;
  std::size_t infeasible_pairs = 0;
  std::size_t pressure_pairs = 0;
  std::size_t cp_wins_shape = 0;  // pairs where CP explored fewer nodes
  std::size_t heterogeneous = 0;

  for (std::size_t trial = 0; pairs < 2200; ++trial) {
    ASSERT_LT(trial, 6000u) << "generator kept producing empty blocks";
    // 1 preset pair in 5 keeps the committed machines covered; the rest
    // are randomized descriptions, where disagreement is most likely.
    const Machine machine =
        trial % 5 == 0
            ? Machine::preset(presets[trial / 5 % presets.size()])
            : random_machine(rng);
    if (machine.has_heterogeneous_alternatives()) ++heterogeneous;

    GeneratorParams params;
    params.statements = 2 + static_cast<int>(rng.next_below(7));
    params.variables = 3 + static_cast<int>(rng.next_below(5));
    params.constants = 1 + static_cast<int>(rng.next_below(4));
    params.seed = rng.next_u64();
    params.optimize = rng.next_bool(0.7);
    const BasicBlock block = generate_block(params);
    if (block.empty()) continue;
    const DepGraph dag(block);

    SearchConfig config;
    // Generous valve only: the pairs are sized to complete outright, and
    // a curtailed pair proves nothing, so completion is asserted below.
    config.curtail_lambda = 5'000'000;
    // Every third pair runs pressure-constrained, tight enough that a
    // good fraction is infeasible — the branch where the backends must
    // agree on the *absence* of any schedule.
    if (trial % 3 == 0) {
      config.max_live_registers = 3 + static_cast<int>(rng.next_below(3));
      ++pressure_pairs;
    }

    const std::string context =
        describe_case(pairs, params, machine, block,
                      config.max_live_registers);
    const ScheduleResult bnb = optimal_schedule(machine, dag, config);
    const ScheduleResult cp = cp_schedule(machine, dag, config);
    ASSERT_TRUE(bnb.stats.completed) << "bnb curtailed\n" << context;
    ASSERT_TRUE(cp.stats.completed) << "cp curtailed\n" << context;

    if (bnb.stats.feasible != cp.stats.feasible ||
        (bnb.stats.feasible && bnb.stats.best_nops != cp.stats.best_nops)) {
      dump_reproducer(pairs, params, block);
    }
    ASSERT_EQ(bnb.stats.feasible, cp.stats.feasible) << context;
    if (!bnb.stats.feasible) {
      ASSERT_EQ(bnb.stats.best_nops, -1) << context;
      ASSERT_EQ(cp.stats.best_nops, -1) << context;
      ++infeasible_pairs;
      ++pairs;
      continue;
    }
    ASSERT_EQ(bnb.stats.best_nops, cp.stats.best_nops) << context;
    ASSERT_EQ(bnb.schedule.total_nops(), bnb.stats.best_nops) << context;
    ASSERT_EQ(cp.schedule.total_nops(), cp.stats.best_nops) << context;

    validate_schedule(machine, dag, bnb.schedule, "bnb", context);
    validate_schedule(machine, dag, cp.schedule, "cp", context);

    if (config.max_live_registers > 0) {
      // A feasible pressure-constrained answer must actually fit.
      for (const Schedule* s : {&bnb.schedule, &cp.schedule}) {
        ASSERT_LE(max_live(compute_live_ranges(block, s->order)),
                  config.max_live_registers)
            << context;
      }
    }
    if (cp.stats.nodes_expanded < bnb.stats.nodes_expanded) ++cp_wins_shape;
    ++pairs;
  }

  EXPECT_GE(pairs, 2000u);
  // The sweep must actually exercise the hard branches, not skate by on
  // easy instances: some pressure-infeasible pairs, some heterogeneous
  // machines, and each backend ahead on search shape somewhere.
  EXPECT_GT(infeasible_pairs, 0u);
  EXPECT_GT(pressure_pairs, 0u);
  EXPECT_GT(heterogeneous, 0u);
  EXPECT_GT(cp_wins_shape, 0u);
  EXPECT_LT(cp_wins_shape, pairs);
}

/// Residual pipeline occupancy at block entry changes earliest start
/// times for the first instructions; the backends must agree there too
/// (the corpus runs with drained entry, so this branch needs its own
/// sweep), and so must the exhaustive scheduler on blocks of at most nine
/// tuples.
TEST(CpDifferential, AgreesUnderResidualEntryState) {
  Rng rng(0xE9712);
  std::size_t pairs = 0;
  for (std::size_t trial = 0; pairs < 200; ++trial) {
    ASSERT_LT(trial, 1000u);
    const Machine machine = random_machine(rng);
    GeneratorParams params;
    params.statements = 2 + static_cast<int>(rng.next_below(6));
    params.variables = 3 + static_cast<int>(rng.next_below(4));
    params.constants = 1 + static_cast<int>(rng.next_below(3));
    params.seed = rng.next_u64();
    const BasicBlock block = generate_block(params);
    if (block.empty()) continue;
    const DepGraph dag(block);

    PipelineState entry = PipelineState::drained(machine);
    for (std::size_t u = 0; u < machine.pipeline_count(); ++u) {
      if (rng.next_bool()) {
        entry.unit_last_issue[u] = -static_cast<int>(rng.next_below(3));
      }
    }

    SearchConfig config;
    config.curtail_lambda = 5'000'000;
    const ScheduleResult bnb = optimal_schedule(machine, dag, config, entry);
    const ScheduleResult cp = cp_schedule(machine, dag, config, entry);
    ASSERT_TRUE(bnb.stats.completed && cp.stats.completed);
    ASSERT_EQ(bnb.stats.best_nops, cp.stats.best_nops)
        << describe_case(pairs, params, machine, block, 0);
    if (block.size() <= 9) {
      // The enumeration starts from the same residual state.
      const ScheduleResult all = run_scheduler(
          SchedulerKind::Exhaustive, machine, dag, config, entry);
      ASSERT_TRUE(all.stats.completed);
      EXPECT_EQ(all.stats.best_nops, bnb.stats.best_nops)
          << describe_case(pairs, params, machine, block, 0);
    }
    ++pairs;
  }
}

}  // namespace
}  // namespace pipesched
