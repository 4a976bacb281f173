#include "core/compiler.hpp"

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
                            const CompileOptions& options) {
  // The Figure 2 pipeline as nested trace spans: optimize -> DAG build
  // -> schedule -> regalloc -> emit, all under one compile_block parent.
  PS_TRACE_SPAN("compile_block");
  CompileResult result;
  {
    PS_COMPILE_STAGE("optimize");
    result.block = prepare_block(block, options);
    result.block.validate();
  }

  const DepGraph dag = [&] {
    PS_COMPILE_STAGE("dag_build");
    return DepGraph(result.block);
  }();
  {
    PS_COMPILE_STAGE("schedule");
    ScheduleResult scheduled =
        run_scheduler(options.scheduler, options.machine, dag, options.search);
    result.schedule = std::move(scheduled.schedule);
    result.stats = scheduled.stats;
  }
  {
    PS_COMPILE_STAGE("regalloc");
    result.allocation =
        linear_scan(result.block, result.schedule.order, options.registers);
  }
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
  RegisterLimitedResult result;
  CompileResult& out = result.compiled;

  PS_TRACE_SPAN("compile_register_limited");
  {
    PS_COMPILE_STAGE("optimize");
    out.block = prepare_block(block, options);
  }

  // Step 2: spill until the (safe) original order fits the file.
  if (block_max_live(out.block) > options.registers) {
    PS_COMPILE_STAGE("spill");
    SpillResult spilled = insert_spill_code(out.block, options.registers);
    out.block = std::move(spilled.block);
    result.values_spilled = spilled.values_spilled;
  }

  // Step 3: pressure-constrained search.
  const DepGraph dag = [&] {
    PS_COMPILE_STAGE("dag_build");
    return DepGraph(out.block);
  }();
  SearchConfig search = options.search;
  search.max_live_registers = options.registers;
  const ScheduleResult searched = [&] {
    PS_COMPILE_STAGE("schedule");
    return run_optimal_backend(options.machine, dag, search);
  }();
  out.stats = searched.stats;
  if (searched.stats.feasible) {
    out.schedule = searched.schedule;
  } else {
    // The post-spill original order is feasible by construction.
    std::vector<TupleIndex> order(out.block.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<TupleIndex>(i);
    }
    out.schedule = evaluate_order(options.machine, dag, order);
    out.stats.best_nops = out.schedule.total_nops();
  }

  {
    PS_COMPILE_STAGE("regalloc");
    out.allocation =
        linear_scan(out.block, out.schedule.order, options.registers);
  }
  PS_ASSERT(out.allocation.registers_used <= options.registers);
  {
    PS_COMPILE_STAGE("emit");
    out.assembly = emit_assembly(out.block, options.machine, out.schedule,
                                 out.allocation, options.emit);
  }
  return result;
}

}  // namespace pipesched
