// Section 3.1's observation, measured:
//
//   "Optimization of the code is not strictly necessary in order to
//    perform pipeline scheduling; in fact, if traditional optimizations
//    are applied, the general effect is that finding good schedules
//    becomes more difficult."
//
// The same source programs are scheduled with and without the optimizer:
// optimized blocks are much smaller but denser in dependences, so the
// residual (unhidable) NOPs per instruction rise and the search works
// relatively harder per instruction — while total execution cycles still
// drop dramatically (the optimizer removed real work).
#include <iostream>

#include "bench_common.hpp"
#include "ir/dag.hpp"
#include "sched/optimal_scheduler.hpp"
#include "util/stats.hpp"

int main() {
  using namespace pipesched;
  bench::banner("Effect of Traditional Optimization on Scheduling",
                "Section 3.1");

  const int runs = bench::corpus_runs(4000);
  CorpusSpec spec;
  spec.total_runs = runs;
  const Machine machine = Machine::paper_simulation();

  struct Side {
    Accumulator instructions;
    Accumulator edges_per_insn;
    Accumulator final_nops;
    Accumulator nops_per_insn;
    Accumulator omega;
    Accumulator cycles;
    Accumulator completed;
  };
  Side with_opt;
  Side without_opt;

  for (GeneratorParams params : corpus_params(spec)) {
    for (bool optimize : {true, false}) {
      params.optimize = optimize;
      const BasicBlock block = generate_block(params);
      if (block.empty()) continue;
      const DepGraph dag(block);
      SearchConfig config;
      config.curtail_lambda = 20000;
      config.lower_bound_prune = true;
      const ScheduleResult result = optimal_schedule(machine, dag, config);

      Side& side = optimize ? with_opt : without_opt;
      const auto n = static_cast<double>(block.size());
      side.instructions.add(n);
      side.edges_per_insn.add(static_cast<double>(dag.edges().size()) / n);
      side.final_nops.add(result.schedule.total_nops());
      side.nops_per_insn.add(result.schedule.total_nops() / n);
      side.omega.add(static_cast<double>(result.stats.omega_calls));
      side.cycles.add(result.schedule.completion_cycle());
      side.completed.add(result.stats.completed ? 100 : 0);
    }
  }

  CsvWriter csv("opt_effect.csv");
  csv.row({"variant", "avg_instructions", "avg_edges_per_insn",
           "avg_final_nops", "avg_nops_per_insn", "avg_omega",
           "avg_cycles", "pct_completed"});
  std::cout << pad_right("", 22) << pad_left("optimized", 12)
            << pad_left("unoptimized", 13) << "\n";
  const auto row = [&](const char* label, auto get) {
    std::cout << pad_right(label, 22)
              << pad_left(compact_double(get(with_opt), 4), 12)
              << pad_left(compact_double(get(without_opt), 4), 13) << "\n";
  };
  row("avg instructions", [](const Side& s) { return s.instructions.mean(); });
  row("avg dep edges/insn",
      [](const Side& s) { return s.edges_per_insn.mean(); });
  row("avg final NOPs", [](const Side& s) { return s.final_nops.mean(); });
  row("avg NOPs/insn", [](const Side& s) { return s.nops_per_insn.mean(); });
  row("avg omega calls", [](const Side& s) { return s.omega.mean(); });
  row("avg total cycles", [](const Side& s) { return s.cycles.mean(); });
  row("% complete", [](const Side& s) { return s.completed.mean(); });
  for (const Side* side : {&with_opt, &without_opt}) {
    csv.row_of(side == &with_opt ? "optimized" : "unoptimized",
               side->instructions.mean(), side->edges_per_insn.mean(),
               side->final_nops.mean(), side->nops_per_insn.mean(),
               side->omega.mean(), side->cycles.mean(),
               side->completed.mean());
  }
  std::cout << "\nThe paper's point shows up as NOPs/instruction: the\n"
               "optimizer removes easy filler, leaving denser dependence\n"
               "structure with relatively more unhidable latency — while\n"
               "total cycles (what the user runs) still fall.\n"
            << "CSV written to opt_effect.csv\n";
  return 0;
}
