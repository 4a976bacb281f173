#include "core/program_compiler.hpp"

#include "core/compiler.hpp"
#include "frontend/opt/passes.hpp"
#include "frontend/parser.hpp"
#include "frontend/program_codegen.hpp"
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

/// A block's label, or "b<id>" when it has none.
std::string label_of(const Program& program, BlockId id) {
  std::string label = program.block(id).block.label();
  if (label.empty()) label.append("b").append(std::to_string(id));
  return label;
}

std::string terminator_assembly(const Program& program, BlockId id) {
  const Terminator& term = program.block(id).term;
  switch (term.kind) {
    case Terminator::Kind::FallThrough:
      return "";
    case Terminator::Kind::Jump:
      return "    j    " + label_of(program, term.target) + "\n";
    case Terminator::Kind::Branch:
      return std::string("    ") + (term.when_zero ? "beqz " : "bnez ") +
             term.cond_var + ", " + label_of(program, term.target) + "\n";
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
  const Machine& machine = options.block.machine;
  ProgramCompileResult result;

  PipelineState previous_exit;  // exit state of the layout-preceding block
  for (std::size_t i = 0; i < program.size(); ++i) {
    const auto id = static_cast<BlockId>(i);
    const BasicBlock& source = program.block(id).block;
    CompiledBlock compiled;
    compiled.chained = options.boundary == BoundaryMode::Chain &&
                       program.only_fallthrough_predecessor(id) &&
                       !previous_exit.unit_last_issue.empty();
    const PipelineState entry = compiled.chained
                                    ? previous_exit
                                    : PipelineState::drained(machine);

    // The label line is printed below, so the body compiles without it.
    BasicBlock body = source;
    body.set_label("");
    CompileResult out = compile_block(body, options.block, entry);
    previous_exit = exit_state_after(machine, out.schedule, entry);

    result.total_instructions += static_cast<int>(out.block.size());
    result.total_nops += out.schedule.total_nops();
    result.assembly += label_of(program, id);
    result.assembly +=
        compiled.chained ? ":                ; pipelines chained\n" : ":\n";
    result.assembly += out.assembly;
    result.assembly += terminator_assembly(program, id);

    compiled.optimized = std::move(out.block);
    compiled.optimized.set_label(source.label());
    compiled.schedule = std::move(out.schedule);
    compiled.stats = out.stats;
    compiled.allocation = std::move(out.allocation);
    result.blocks.push_back(std::move(compiled));
    if (options.progress) options.progress->add();
  }
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
