// Multiple-pipelines-per-operation extension (the Tables 2-3 machine).
//
// The paper's core algorithm footnote excludes choosing among duplicate
// units; our timing engine assigns each operation to the earliest-free
// homogeneous unit. This bench quantifies what unit duplication buys:
// the same corpus scheduled on the Tables 2-3 machine (two loaders, two
// adders, one multiplier) vs. a single-unit variant of it, plus the
// unpipelined-units model of Section 2.1.
#include <iostream>

#include "bench_common.hpp"
#include "sched/greedy_scheduler.hpp"
#include "sched/optimal_scheduler.hpp"
#include "ir/dag.hpp"
#include "util/stats.hpp"

namespace {

using namespace pipesched;

Machine paper_example_single() {
  Machine m("paper-example-single");
  m.add_pipeline("loader", 2, 1);
  m.add_pipeline("adder", 4, 3);
  m.add_pipeline("multiplier", 4, 2);
  m.map_op(Opcode::Load, "loader");
  m.map_op(Opcode::Add, "adder");
  m.map_op(Opcode::Sub, "adder");
  m.map_op(Opcode::Neg, "adder");
  m.map_op(Opcode::Mul, "multiplier");
  m.map_op(Opcode::Div, "multiplier");
  m.validate();
  return m;
}

}  // namespace

int main() {
  using namespace pipesched;
  bench::banner("Duplicated Pipeline Units (Tables 2-3 Machine)",
                "Section 4.1 extension");

  const int runs = bench::corpus_runs(3000);
  CorpusSpec spec;
  spec.total_runs = runs;
  const auto params = corpus_params(spec);

  const Machine machines[] = {
      Machine::paper_example(),      // 2 loaders, 2 adders, 1 multiplier
      paper_example_single(),        // same latencies, one unit each
      Machine::paper_simulation(),   // Tables 4-5 reference machine
      Machine::unpipelined_units(),  // enqueue == latency units
  };

  CsvWriter csv("multipipe.csv");
  csv.row({"machine", "avg_initial_nops", "avg_final_nops", "pct_completed",
           "avg_omega_calls"});
  std::cout << pad_right("machine", 24) << pad_left("avg initial", 13)
            << pad_left("avg final", 11) << pad_left("% complete", 12)
            << pad_left("avg omega", 12) << "\n";

  for (const Machine& machine : machines) {
    CorpusRunOptions options;
    options.machine = machine;
    options.search.curtail_lambda = 20000;
    const CorpusSummary s = summarize_corpus(run_corpus(params, options));
    std::cout << pad_right(machine.name(), 24)
              << pad_left(compact_double(s.total.avg_initial_nops, 4), 13)
              << pad_left(compact_double(s.total.avg_final_nops, 4), 11)
              << pad_left(compact_double(s.completed.percent, 4), 12)
              << pad_left(
                     compact_double(
                         s.total.average(&SearchStats::omega_calls), 5),
                     12)
              << "\n";
    csv.row_of(machine.name(), s.total.avg_initial_nops,
               s.total.avg_final_nops, s.completed.percent,
               s.total.average(&SearchStats::omega_calls));
  }
  std::cout << "\nduplicated units should show strictly fewer final NOPs "
               "than the single-unit variant.\n";

  // Second experiment: heterogeneous alternatives (asymmetric-alus —
  // beyond footnote 3). The optimal search branches over unit-signature
  // groups; greedy earliest-free assignment is only a heuristic there.
  {
    const Machine machine = Machine::asymmetric_alus();
    Accumulator greedy_nops;
    Accumulator optimal_nops;
    Accumulator improved;
    for (const GeneratorParams& p : params) {
      const BasicBlock block = generate_block(p);
      if (block.empty()) continue;
      const DepGraph dag(block);
      const int greedy =
          greedy_schedule(machine, dag).total_nops();
      SearchConfig search;
      search.curtail_lambda = 20000;
      search.lower_bound_prune = true;
      const int optimal =
          optimal_schedule(machine, dag, search).schedule.total_nops();
      greedy_nops.add(greedy);
      optimal_nops.add(optimal);
      improved.add(optimal < greedy ? 100 : 0);
    }
    std::cout << "\nheterogeneous units (" << machine.name()
              << "): greedy assignment "
              << compact_double(greedy_nops.mean(), 4)
              << " NOPs/block vs unit-branching optimal "
              << compact_double(optimal_nops.mean(), 4) << " ("
              << compact_double(improved.mean(), 3)
              << "% of blocks strictly improved)\n";
    csv.row_of("asymmetric-greedy", 0, greedy_nops.mean(), 0, 0);
    csv.row_of("asymmetric-optimal", 0, optimal_nops.mean(), 0, 0);
  }
  std::cout << "CSV written to multipipe.csv\n";
  return 0;
}
