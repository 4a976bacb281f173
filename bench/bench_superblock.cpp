// Superblock formation (DESIGN.md item 16, toward Section 6's trace
// scheduling): what merging linear block chains buys.
//
// Workload: straight-line programs deliberately fractured into one block
// per statement (what a naive front end or per-statement lowering
// produces), chained by fall-through. merge_linear_chains() collapses the
// chain back into one superblock; compilation is compared on
//   * total instructions (cross-block load forwarding / CSE now fire),
//   * total NOPs and summed completion cycles (the scheduler can overlap
//     latencies across the former cuts).
#include <iostream>

#include "bench_common.hpp"
#include "core/program_compiler.hpp"
#include "core/superblock.hpp"
#include "frontend/codegen.hpp"
#include "synth/generator.hpp"
#include "util/stats.hpp"

namespace {

using namespace pipesched;

/// One block per statement, fall-through chained, Return at the end.
Program fractured_program(const SourceProgram& source) {
  Program program;
  for (std::size_t s = 0; s < source.statements.size(); ++s) {
    BlockEmitter emitter(source, std::string("s").append(std::to_string(s)));
    const Stmt& stmt = source.statements[s];
    emitter.emit_assign(stmt.target, stmt.value);
    const BlockId id = program.add_block();
    program.block_mut(id).block = emitter.take();
    program.block_mut(id).term =
        s + 1 == source.statements.size() ? Terminator::ret()
                                          : Terminator::fall_through();
  }
  program.validate();
  return program;
}

int total_cycles(const ProgramCompileResult& result) {
  int cycles = 0;
  for (const CompiledBlock& block : result.blocks) {
    cycles += block.schedule.completion_cycle();
  }
  return cycles;
}

}  // namespace

int main() {
  using namespace pipesched;
  bench::banner("Superblock Formation on Fractured Straight-Line Code",
                "toward Section 6 trace scheduling");

  const int runs = bench::corpus_runs(1500);
  Accumulator frac_insns;
  Accumulator merged_insns;
  Accumulator frac_nops;
  Accumulator merged_nops;
  Accumulator frac_cycles;
  Accumulator merged_cycles;
  Accumulator merges;

  for (int i = 0; i < runs; ++i) {
    GeneratorParams params;
    params.statements = 4 + i % 12;
    params.variables = 4 + i % 4;
    params.constants = 2;
    params.seed = 31000 + static_cast<std::uint64_t>(i) * 13;
    const SourceProgram source = generate_source(params);
    const Program fractured = fractured_program(source);
    const SuperblockResult merged = merge_linear_chains(fractured);
    merges.add(merged.merges);

    ProgramCompileOptions options;
    options.block.search.curtail_lambda = 20000;
    options.block.search.lower_bound_prune = true;
    const ProgramCompileResult a = compile_program(fractured, options);
    const ProgramCompileResult b = compile_program(merged.program, options);

    frac_insns.add(a.total_instructions);
    merged_insns.add(b.total_instructions);
    frac_nops.add(a.total_nops);
    merged_nops.add(b.total_nops);
    frac_cycles.add(total_cycles(a));
    merged_cycles.add(total_cycles(b));
  }

  CsvWriter csv("superblock.csv");
  csv.row({"variant", "avg_instructions", "avg_nops", "avg_total_cycles"});
  std::cout << runs << " fractured programs, mean "
            << compact_double(merges.mean(), 3)
            << " edges merged each\n\n"
            << pad_right("variant", 26) << pad_left("avg insns", 11)
            << pad_left("avg NOPs", 10) << pad_left("avg cycles", 12)
            << "\n";
  const auto row = [&](const char* name, const Accumulator& insns,
                       const Accumulator& nops, const Accumulator& cycles) {
    std::cout << pad_right(name, 26)
              << pad_left(compact_double(insns.mean(), 4), 11)
              << pad_left(compact_double(nops.mean(), 4), 10)
              << pad_left(compact_double(cycles.mean(), 4), 12) << "\n";
    csv.row_of(name, insns.mean(), nops.mean(), cycles.mean());
  };
  row("one block per statement", frac_insns, frac_nops, frac_cycles);
  row("superblock merged", merged_insns, merged_nops, merged_cycles);

  std::cout << "\nmerging restores the optimizer's and scheduler's scope: "
               "fewer instructions\n(cross-block redundancy removed) and "
               "fewer cycles (latencies overlap across\nthe former cuts).\n"
            << "CSV written to superblock.csv\n";
  return 0;
}
