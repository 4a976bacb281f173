#include "core/compiler.hpp"

#include <numeric>

#include "frontend/codegen.hpp"
#include "frontend/opt/passes.hpp"
#include "frontend/parser.hpp"
#include "regalloc/spill.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pipesched {

LogHistogram& compile_stage_histogram(const char* stage) {
  return metrics_histogram("ps_compile_stage_seconds", {{"stage", stage}},
                           "Wall-clock seconds per compile stage");
}

namespace {

BasicBlock prepare_block(const BasicBlock& block,
                         const CompileOptions& options) {
  BasicBlock prepared =
      options.optimize ? run_standard_pipeline(block) : block;
  if (options.reassociate) {
    prepared = reassociation(prepared).block;
    prepared = dead_code_elimination(prepared).block;
  }
  return prepared;
}

}  // namespace

CompileResult compile_block(const BasicBlock& block,
                            const CompileOptions& options,
                            const PipelineState& entry) {
  // The Figure 2 pipeline as nested trace spans: optimize -> (spill) ->
  // DAG build -> schedule -> regalloc -> emit, under one compile_block.
  PS_TRACE_SPAN("compile_block");
  const int ceiling = options.search.max_live_registers;
  PS_CHECK(ceiling <= 0 || options.scheduler == SchedulerKind::Optimal,
           "a register ceiling needs the optimal scheduler");
  CompileResult result;
  {
    PS_COMPILE_STAGE("optimize");
    result.block = prepare_block(block, options);
    result.block.validate();
  }

  // Section 3.1: spill until the (safe) original order fits the ceiling.
  if (ceiling > 0 && block_max_live(result.block) > ceiling) {
    PS_COMPILE_STAGE("spill");
    SpillResult spilled = insert_spill_code(result.block, ceiling);
    result.block = std::move(spilled.block);
    result.values_spilled = spilled.values_spilled;
  }

  const DepGraph dag = [&] {
    PS_COMPILE_STAGE("dag_build");
    return DepGraph(result.block);
  }();
  {
    PS_COMPILE_STAGE("schedule");
    ScheduleResult scheduled = run_scheduler(
        options.scheduler, options.machine, dag, options.search, entry);
    result.schedule = std::move(scheduled.schedule);
    result.stats = scheduled.stats;
  }
  if (!result.stats.feasible) {
    // No schedule fits the ceiling: the post-spill original order does,
    // by construction.
    std::vector<TupleIndex> order(result.block.size());
    std::iota(order.begin(), order.end(), TupleIndex{0});
    result.schedule = evaluate_order(options.machine, dag, order, entry);
    result.stats.best_nops = result.schedule.total_nops();
  }
  {
    PS_COMPILE_STAGE("regalloc");
    result.allocation =
        linear_scan(result.block, result.schedule.order, options.registers);
  }
  PS_ASSERT(ceiling <= 0 || result.allocation.registers_used <= ceiling);
  {
    PS_COMPILE_STAGE("emit");
    result.assembly = emit_assembly(result.block, options.machine,
                                    result.schedule, result.allocation,
                                    options.emit);
  }
  return result;
}

CompileResult compile_source(const std::string& source,
                             const CompileOptions& options) {
  BasicBlock tuples;
  {
    PS_COMPILE_STAGE("parse");
    const SourceProgram program = parse_source(source);
    tuples = generate_tuples(program);
  }
  return compile_block(tuples, options);
}

RegisterLimitedResult compile_with_register_limit(const BasicBlock& block,
                                                  CompileOptions options) {
  PS_CHECK(options.registers >= 3,
           "register-limited compilation needs at least 3 registers");
  options.scheduler = SchedulerKind::Optimal;
  options.search.max_live_registers = options.registers;
  RegisterLimitedResult result;
  result.compiled = compile_block(block, options);
  result.values_spilled = result.compiled.values_spilled;
  return result;
}

}  // namespace pipesched
