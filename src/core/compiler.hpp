// End-to-end compiler driver (paper Figure 2):
//
//   source --> optimized tuple generation --> list scheduler
//          --> pipeline scheduler --> register allocation
//          --> code generation
//
// compile_source()/compile_block() run the whole back end with one call;
// run_scheduler() (sched/scheduler.hpp) runs the scheduler stage alone,
// for experiments that compare scheduling policies on the same block.
#pragma once

#include <string>

#include "asmout/emitter.hpp"
#include "frontend/ast.hpp"
#include "ir/block.hpp"
#include "machine/machine.hpp"
#include "regalloc/regalloc.hpp"
#include "sched/optimal_scheduler.hpp"
#include "sched/schedule.hpp"
#include "sched/scheduler.hpp"
#include "sched/timing.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace pipesched {

// SchedulerKind and scheduler_kind_name live in sched/scheduler.hpp,
// next to the run_scheduler entry point.

/// Shared `ps_compile_stage_seconds{stage=...}` family for the compile
/// pipeline's wall-time histograms (find-or-create, so call sites can
/// cache the reference in a static local).
LogHistogram& compile_stage_histogram(const char* stage);

/// Scope one compile stage: a trace span named `stage` plus one
/// observation of its wall time in ps_compile_stage_seconds{stage=...}.
/// The histogram reference is a per-site static, so the registry mutex
/// is taken once per site, not once per stage per block.
#define PS_COMPILE_STAGE(stage)                                        \
  PS_TRACE_SPAN(stage);                                                \
  static ::pipesched::LogHistogram& PS_TRACE_CONCAT(ps_stage_histogram_, \
                                                    __LINE__) =        \
      ::pipesched::compile_stage_histogram(stage);                     \
  ::pipesched::MetricTimer PS_TRACE_CONCAT(ps_stage_timer_, __LINE__)( \
      PS_TRACE_CONCAT(ps_stage_histogram_, __LINE__))

struct CompileOptions {
  Machine machine = Machine::paper_simulation();
  SchedulerKind scheduler = SchedulerKind::Optimal;
  SearchConfig search;      ///< the scheduler's budgets and settings; its
                            ///< max_live_registers is the register ceiling
  bool optimize = true;     ///< run the standard pass pipeline first
  bool reassociate = false; ///< + reassociation (balances Add/Mul trees to
                            ///< shorten the critical path; extension pass)
  int registers = 32;       ///< register file size for allocation
  EmitOptions emit;
};

struct CompileResult {
  BasicBlock block;       ///< tuple code the scheduler consumed
  Schedule schedule;
  SearchStats stats;      ///< search counters (Optimal); timing for others
  Allocation allocation;
  std::string assembly;
  int values_spilled = 0; ///< spill temporaries a register ceiling added
};

/// Parse, optimize, schedule, allocate and emit one source block.
CompileResult compile_source(const std::string& source,
                             const CompileOptions& options = {});

/// Same pipeline starting from already-generated tuple code, with the
/// pipelines in state `entry` at block entry (drained when empty; see
/// exit_state_after for chaining blocks). This is the one function that
/// runs a block through the back end; every other driver calls it.
///
/// A register ceiling R = options.search.max_live_registers > 0 applies
/// Section 3.1's discipline. Spill code is inserted before scheduling
/// until the original order fits R, so allocation afterwards never needs
/// new spills, and the search is barred from exceeding R. When the search
/// ends without a schedule (stats.outcome() is Infeasible or NoSchedule),
/// the post-spill original order is emitted and its NOPs are reported in
/// stats.best_nops. A ceiling needs SchedulerKind::Optimal, the only
/// scheduler that honours it, and R >= 3.
CompileResult compile_block(const BasicBlock& block,
                            const CompileOptions& options = {},
                            const PipelineState& entry = {});

/// Outcome of register-limited compilation; values_spilled repeats
/// compiled.values_spilled.
struct RegisterLimitedResult {
  CompileResult compiled;
  int values_spilled = 0;       ///< spill temporaries introduced
};

/// compile_block under a ceiling of `options.registers`, on the optimal
/// scheduler whatever options.scheduler says, so the final code provably
/// fits the register file. Requires options.registers >= 3.
RegisterLimitedResult compile_with_register_limit(const BasicBlock& block,
                                                  CompileOptions options);

}  // namespace pipesched
