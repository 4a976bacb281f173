// Register-file size sweep (Section 3.1's spill discipline +
// pressure-constrained scheduling): NOPs and spill counts as the file
// shrinks. The classic scheduling/allocation tension, quantified with
// *optimal* schedules at every point.
#include <iostream>

#include "bench_common.hpp"
#include "core/compiler.hpp"
#include "regalloc/spill.hpp"
#include "util/stats.hpp"

int main() {
  using namespace pipesched;
  bench::banner("Schedule Quality Vs. Register File Size",
                "Section 3.1 extension");

  const int runs = bench::corpus_runs(1500);
  CorpusSpec spec;
  spec.total_runs = runs;
  const auto params = corpus_params(spec);
  const Machine machine = Machine::risc_classic();

  struct Row {
    int registers;
    Accumulator nops;
    Accumulator spills;
    Accumulator fallback;  ///< % of blocks that ended without a schedule
  };
  std::vector<Row> rows;
  for (int registers : {32, 10, 8, 6, 5, 4, 3}) {
    rows.push_back({registers, {}, {}, {}});
  }
  Accumulator maxlive;

  for (const GeneratorParams& p : params) {
    const BasicBlock block = generate_block(p);
    if (block.empty()) continue;
    maxlive.add(block_max_live(block));
    for (Row& row : rows) {
      CompileOptions options;
      options.machine = machine;
      options.registers = row.registers;
      options.search.curtail_lambda = 20000;
      options.search.lower_bound_prune = true;
      const RegisterLimitedResult result =
          compile_with_register_limit(block, options);
      row.nops.add(result.compiled.schedule.total_nops());
      row.spills.add(result.values_spilled);
      switch (result.compiled.stats.outcome()) {
        case SearchOutcome::Optimal:
        case SearchOutcome::Curtailed:
          row.fallback.add(0);
          break;
        case SearchOutcome::Infeasible:
        case SearchOutcome::NoSchedule:
          row.fallback.add(100);
          break;
      }
    }
  }

  std::cout << rows.front().nops.count() << " blocks, mean MAXLIVE "
            << compact_double(maxlive.mean(), 3) << "\n\n";
  CsvWriter csv("pressure.csv");
  csv.row({"registers", "avg_final_nops", "avg_spilled_values",
           "pct_fallback"});
  std::cout << pad_left("registers", 10) << pad_left("avg NOPs", 11)
            << pad_left("avg spills", 12) << pad_left("% fallback", 12)
            << "\n";
  for (const Row& row : rows) {
    std::cout << pad_left(std::to_string(row.registers), 10)
              << pad_left(compact_double(row.nops.mean(), 4), 11)
              << pad_left(compact_double(row.spills.mean(), 3), 12)
              << pad_left(compact_double(row.fallback.mean(), 3), 12)
              << "\n";
    csv.row_of(row.registers, row.nops.mean(), row.spills.mean(),
               row.fallback.mean());
  }
  std::cout << "\nCSV written to pressure.csv\n";
  return 0;
}
