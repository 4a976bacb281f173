// Differential end-to-end sweep: random programs through every machine,
// scheduler and delay mechanism, checking the invariants that tie the
// subsystems together:
//   * the scheduler's order is a legal topological order;
//   * executing the block in the scheduled order leaves memory exactly as
//     the original order does (semantic preservation of reordering);
//   * the padded schedule validates hazard-free on the simulator and the
//     interlock stall count equals the inserted NOPs;
//   * register allocation is overlap-free;
//   * assembly emission succeeds under every delay mechanism.
#include <gtest/gtest.h>

#include "asmout/emitter.hpp"
#include "core/compiler.hpp"
#include "ir/dag.hpp"
#include "ir/interp.hpp"
#include "sim/simulator.hpp"
#include "synth/generator.hpp"
#include "util/rng.hpp"

namespace pipesched {
namespace {

struct FuzzCase {
  std::string machine;
  std::uint64_t seed;
};

/// Names the parameter in test IDs; gtest's default dumps the raw bytes,
/// heap pointer included, so every build would name the test differently.
void PrintTo(const FuzzCase& c, std::ostream* os) {
  *os << c.machine << " seed " << c.seed;
}

class EndToEndFuzz : public testing::TestWithParam<FuzzCase> {};

TEST_P(EndToEndFuzz, AllInvariantsHold) {
  const Machine machine = Machine::preset(GetParam().machine);
  Rng rng(GetParam().seed * 77 + 5);

  for (int trial = 0; trial < 12; ++trial) {
    GeneratorParams params;
    params.statements = 3 + static_cast<int>(rng.next_below(14));
    params.variables = 3 + static_cast<int>(rng.next_below(6));
    params.constants = 1 + static_cast<int>(rng.next_below(4));
    params.seed = rng.next_u64();
    params.optimize = rng.next_bool(0.7);
    const BasicBlock block = generate_block(params);
    if (block.empty()) continue;
    const DepGraph dag(block);

    VarEnv initial;
    for (std::size_t v = 0; v < block.var_count(); ++v) {
      initial[static_cast<VarId>(v)] = rng.next_in(-100, 100);
    }
    const VarEnv expected = interpret(block, initial).final_vars;

    for (SchedulerKind kind : {SchedulerKind::List, SchedulerKind::Greedy,
                               SchedulerKind::Optimal}) {
      SearchConfig search;
      search.curtail_lambda = 5000;
      search.strong_equivalence = rng.next_bool();
      search.lower_bound_prune = rng.next_bool();
      search.dominance_cache = rng.next_bool();
      const auto [schedule, stats] = run_scheduler(kind, machine, dag, search);

      ASSERT_TRUE(dag.is_legal_order(schedule.order))
          << scheduler_kind_name(kind) << " " << GetParam().machine;

      // Reordering must not change the block's meaning.
      const VarEnv reordered =
          interpret_in_order(block, initial, schedule.order).final_vars;
      ASSERT_EQ(reordered, expected) << scheduler_kind_name(kind);

      // Simulator agreement.
      const SimResult padded = validate_padded(machine, dag, schedule);
      ASSERT_TRUE(padded.ok) << padded.error;
      const SimResult interlocked =
          machine.has_heterogeneous_alternatives()
              ? simulate_interlocked(machine, dag, schedule.order,
                                     schedule.unit)
              : simulate_interlocked(machine, dag, schedule.order);
      ASSERT_EQ(interlocked.total_delay, schedule.total_nops());

      // Allocation + every emission mechanism.
      const Allocation allocation = linear_scan(block, schedule.order, 64);
      ASSERT_TRUE(verify_allocation(block, schedule.order, allocation));
      for (DelayMechanism mechanism :
           {DelayMechanism::NopPadding, DelayMechanism::ImplicitInterlock,
            DelayMechanism::ExplicitInterlock, DelayMechanism::TeraCount,
            DelayMechanism::CarpMask}) {
        EmitOptions emit;
        emit.mechanism = mechanism;
        const std::string text =
            emit_assembly(block, machine, schedule, allocation, emit);
        ASSERT_FALSE(text.empty());
      }
    }
  }
}

/// A machine description drawn at random: 1-4 pipelines with independent
/// latency/enqueue parameters, each schedulable opcode mapped to a random
/// non-empty unit subset (or left sigma-empty). Subsets spanning units
/// with different parameters exercise the heterogeneous-alternatives
/// branching, which the preset sweep only covers via asymmetric-alus.
Machine random_machine(Rng& rng) {
  Machine machine("fuzz-random");
  const int units = 1 + static_cast<int>(rng.next_below(4));
  for (int u = 0; u < units; ++u) {
    machine.add_pipeline(std::string("u").append(std::to_string(u)),
                         1 + static_cast<int>(rng.next_below(6)),
                         1 + static_cast<int>(rng.next_below(4)));
  }
  for (Opcode op : {Opcode::Load, Opcode::Mov, Opcode::Neg, Opcode::Add,
                    Opcode::Sub, Opcode::Mul, Opcode::Div}) {
    if (!rng.next_bool(0.8)) continue;  // sigma = empty sometimes
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

TEST(RandomMachineFuzz, CachedSchedulesValidateOnSimulator) {
  // Dominance-cache soundness across randomized machine descriptions,
  // including heterogeneous-pipeline configs: every schedule the cached
  // search returns must pass cycle-level simulator validation (legal
  // issue order, stall count == inserted NOPs), and must cost exactly
  // what the uncached search costs.
  Rng rng(0xF022CACE);
  int heterogeneous_seen = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Machine machine = random_machine(rng);
    if (machine.has_heterogeneous_alternatives()) ++heterogeneous_seen;

    GeneratorParams params;
    params.statements = 3 + static_cast<int>(rng.next_below(8));
    params.variables = 3 + static_cast<int>(rng.next_below(5));
    params.constants = 1 + static_cast<int>(rng.next_below(4));
    params.seed = rng.next_u64();
    params.optimize = rng.next_bool(0.7);
    const BasicBlock block = generate_block(params);
    if (block.empty()) continue;
    const DepGraph dag(block);

    SearchConfig cached;
    cached.curtail_lambda = 20000;
    SearchConfig uncached = cached;
    uncached.dominance_cache = false;

    const ScheduleResult with_cache = optimal_schedule(machine, dag, cached);
    const ScheduleResult without_cache =
        optimal_schedule(machine, dag, uncached);

    ASSERT_TRUE(dag.is_legal_order(with_cache.schedule.order))
        << "trial " << trial;
    const SimResult padded = validate_padded(machine, dag, with_cache.schedule);
    ASSERT_TRUE(padded.ok) << "trial " << trial << ": " << padded.error;
    const SimResult interlocked =
        machine.has_heterogeneous_alternatives()
            ? simulate_interlocked(machine, dag, with_cache.schedule.order,
                                   with_cache.schedule.unit)
            : simulate_interlocked(machine, dag, with_cache.schedule.order);
    ASSERT_EQ(interlocked.total_delay, with_cache.schedule.total_nops())
        << "trial " << trial;

    if (with_cache.stats.completed && without_cache.stats.completed) {
      ASSERT_EQ(with_cache.schedule.total_nops(),
                without_cache.schedule.total_nops())
          << "trial " << trial << " machine:\n" << machine.to_string()
          << block.to_string();
    }
  }
  EXPECT_GT(heterogeneous_seen, 0);
}

TEST(BackendFuzz, OptimalBackendsAgreeThroughSchedulerInterface) {
  // Both optimal backends through the one run_scheduler entry point, over
  // random machines, including pressure-constrained and infeasible
  // instances: the two must report the same optimum — or both must prove
  // infeasibility (best_nops == -1) — and every feasible schedule must
  // validate on the simulator.
  Rng rng(0xBACE2D);
  int infeasible_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Machine machine = random_machine(rng);
    GeneratorParams params;
    params.statements = 2 + static_cast<int>(rng.next_below(8));
    params.variables = 3 + static_cast<int>(rng.next_below(5));
    params.constants = 1 + static_cast<int>(rng.next_below(4));
    params.seed = rng.next_u64();
    params.optimize = rng.next_bool(0.7);
    const BasicBlock block = generate_block(params);
    if (block.empty()) continue;
    const DepGraph dag(block);

    SearchConfig config;
    config.curtail_lambda = 2'000'000;
    if (rng.next_bool(0.4)) {
      config.max_live_registers = 3 + static_cast<int>(rng.next_below(3));
    }

    bool have_reference = false;
    bool ref_feasible = true;
    int ref_nops = 0;
    for (OptimalBackend backend : {OptimalBackend::Bnb, OptimalBackend::Cp}) {
      SearchConfig c = config;
      c.backend = backend;
      const auto [schedule, stats] =
          run_scheduler(SchedulerKind::Optimal, machine, dag, c);
      ASSERT_TRUE(stats.completed)
          << optimal_backend_name(backend) << " trial " << trial;
      if (!have_reference) {
        have_reference = true;
        ref_feasible = stats.feasible;
        ref_nops = stats.best_nops;
        if (!ref_feasible) ++infeasible_seen;
      }
      ASSERT_EQ(stats.feasible, ref_feasible)
          << optimal_backend_name(backend) << " trial " << trial
          << " machine:\n" << machine.to_string() << block.to_string();
      ASSERT_EQ(stats.best_nops, ref_nops)
          << optimal_backend_name(backend) << " trial " << trial
          << " machine:\n" << machine.to_string() << block.to_string();
      if (!stats.feasible) continue;
      ASSERT_TRUE(dag.is_legal_order(schedule.order))
          << optimal_backend_name(backend);
      ASSERT_EQ(schedule.total_nops(), stats.best_nops)
          << optimal_backend_name(backend);
      const SimResult padded = validate_padded(machine, dag, schedule);
      ASSERT_TRUE(padded.ok)
          << optimal_backend_name(backend) << ": " << padded.error;
    }
  }
  EXPECT_GT(infeasible_seen, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EndToEndFuzz,
    testing::ValuesIn([] {
      std::vector<FuzzCase> cases;
      for (const std::string& machine : Machine::preset_names()) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
          cases.push_back({machine, seed});
        }
      }
      return cases;
    }()),
    [](const testing::TestParamInfo<FuzzCase>& param_info) {
      std::string name =
          param_info.param.machine + "_s" + std::to_string(param_info.param.seed);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace pipesched
