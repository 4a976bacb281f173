#include "core/program_compiler.hpp"

#include <sstream>

#include "core/compiler.hpp"
#include "frontend/opt/passes.hpp"
#include "frontend/parser.hpp"
#include "frontend/program_codegen.hpp"
#include "ir/dag.hpp"
#include "util/check.hpp"
#include "util/trace.hpp"

namespace pipesched {

Program optimize_program(const Program& program) {
  Program out;
  for (std::size_t i = 0; i < program.size(); ++i) {
    const ProgramBlock& pb = program.block(static_cast<BlockId>(i));
    const BlockId id = out.add_block();
    BasicBlock optimized = run_standard_pipeline(pb.block);
    optimized.set_label(pb.block.label());
    out.block_mut(id).block = std::move(optimized);
    out.block_mut(id).term = pb.term;
  }
  out.validate();
  return out;
}

namespace {

std::string terminator_assembly(const Program& program, BlockId id) {
  const Terminator& term = program.block(id).term;
  const auto label_of = [&](BlockId target) {
    const std::string& label = program.block(target).block.label();
    return label.empty() ? "b" + std::to_string(target) : label;
  };
  switch (term.kind) {
    case Terminator::Kind::FallThrough:
      return "";
    case Terminator::Kind::Jump:
      return "    j    " + label_of(term.target) + "\n";
    case Terminator::Kind::Branch:
      return std::string("    ") + (term.when_zero ? "beqz " : "bnez ") +
             term.cond_var + ", " + label_of(term.target) + "\n";
    case Terminator::Kind::Return:
      return "    ret\n";
  }
  return "";
}

}  // namespace

ProgramCompileResult compile_program(const Program& program,
                                     const ProgramCompileOptions& options) {
  program.validate();
  PS_TRACE_SPAN("compile_program");
  ProgramCompileResult result;
  std::ostringstream assembly;

  PipelineState previous_exit;  // exit state of the layout-preceding block
  for (std::size_t i = 0; i < program.size(); ++i) {
    PS_TRACE_SPAN("program_block");
    const auto id = static_cast<BlockId>(i);
    const ProgramBlock& pb = program.block(id);

    CompiledBlock compiled;
    {
      PS_COMPILE_STAGE("optimize");
      compiled.optimized = options.block.optimize
                               ? run_standard_pipeline(pb.block)
                               : pb.block;
      compiled.optimized.set_label(pb.block.label());
    }

    const DepGraph dag = [&] {
      PS_COMPILE_STAGE("dag_build");
      return DepGraph(compiled.optimized);
    }();
    compiled.chained = options.boundary == BoundaryMode::Chain &&
                       program.only_fallthrough_predecessor(id) &&
                       !previous_exit.unit_last_issue.empty();
    const PipelineState entry =
        compiled.chained ? previous_exit
                         : PipelineState::drained(options.block.machine);

    {
      PS_COMPILE_STAGE("schedule");
      ScheduleResult scheduled =
          run_scheduler(options.block.scheduler, options.block.machine, dag,
                        options.block.search, entry);
      compiled.schedule = std::move(scheduled.schedule);
      compiled.stats = scheduled.stats;
    }
    {
      PS_COMPILE_STAGE("regalloc");
      compiled.allocation = linear_scan(compiled.optimized,
                                        compiled.schedule.order,
                                        options.block.registers);
    }

    // Replay to obtain the exit occupancy for the next block.
    {
      PipelineTimer timer(options.block.machine, dag, entry);
      for (TupleIndex t : compiled.schedule.order) timer.push(t);
      previous_exit = timer.exit_state();
    }

    result.total_instructions += static_cast<int>(compiled.optimized.size());
    result.total_nops += compiled.schedule.total_nops();

    const std::string label = compiled.optimized.label().empty()
                                  ? "b" + std::to_string(i)
                                  : compiled.optimized.label();
    assembly << label << ":";
    if (compiled.chained) assembly << "                ; pipelines chained";
    assembly << "\n";
    // Body without the label line (emit_assembly prints it when set).
    BasicBlock body = compiled.optimized;
    body.set_label("");
    {
      PS_COMPILE_STAGE("emit");
      assembly << emit_assembly(body, options.block.machine,
                                compiled.schedule, compiled.allocation,
                                options.block.emit);
    }
    assembly << terminator_assembly(program, id);

    result.blocks.push_back(std::move(compiled));
    if (options.progress) options.progress->add();
  }
  result.assembly = assembly.str();
  return result;
}

ProgramCompileResult compile_program_source(
    const std::string& source, const ProgramCompileOptions& options) {
  Program program = [&] {
    PS_COMPILE_STAGE("parse");
    const SourceProgram parsed = parse_source(source);
    return generate_program(parsed);
  }();
  return compile_program(program, options);
}

}  // namespace pipesched
