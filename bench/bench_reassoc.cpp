// Reassociation ablation (extension): balancing Add/Mul trees shortens
// the dependence critical path, which is the binding constraint whenever
// a block is chain-dominated — exactly the blocks whose NOPs the
// scheduler cannot otherwise hide.
//
// Corpus rows: standard optimizer vs standard + reassociation; mean
// critical path, mean final NOPs, and the same on a chain-heavy stress
// workload (long product/sum expressions).
#include <iostream>

#include "bench_common.hpp"
#include "frontend/codegen.hpp"
#include "frontend/opt/passes.hpp"
#include "frontend/parser.hpp"
#include "ir/dag.hpp"
#include "sched/optimal_scheduler.hpp"
#include "util/stats.hpp"

namespace {

using namespace pipesched;

struct Row {
  Accumulator critical_path;
  Accumulator final_nops;
  Accumulator instructions;
};

void measure(const BasicBlock& prepared, const Machine& machine, Row& row) {
  if (prepared.empty()) return;
  const DepGraph dag(prepared);
  SearchConfig config;
  config.curtail_lambda = 20000;
  config.lower_bound_prune = true;
  const ScheduleResult result = optimal_schedule(machine, dag, config);
  row.critical_path.add(dag.critical_path_length());
  row.final_nops.add(result.schedule.total_nops());
  row.instructions.add(static_cast<double>(prepared.size()));
}

BasicBlock with_reassoc(const BasicBlock& block) {
  return dead_code_elimination(reassociation(block).block).block;
}

/// Long reduction expressions: the chain-dominated stress case.
std::string chain_source(std::uint64_t seed) {
  Rng rng(seed);
  std::ostringstream oss;
  for (int s = 0; s < 3; ++s) {
    oss << "r" << s << " = v0";
    const char op = rng.next_bool() ? '*' : '+';
    const int terms = 5 + static_cast<int>(rng.next_below(8));
    for (int t = 1; t <= terms; ++t) {
      oss << ' ' << op << " v" << t % 6;
    }
    oss << ";\n";
  }
  return oss.str();
}

}  // namespace

int main() {
  using namespace pipesched;
  bench::banner("Reassociation: Critical Path Vs. Final NOPs",
                "extension (DESIGN.md)");

  const Machine machine = Machine::paper_simulation();
  const int runs = bench::corpus_runs(3000);

  Row corpus_plain;
  Row corpus_balanced;
  {
    CorpusSpec spec;
    spec.total_runs = runs;
    for (const GeneratorParams& p : corpus_params(spec)) {
      const BasicBlock block = generate_block(p);  // standard pipeline
      measure(block, machine, corpus_plain);
      measure(run_standard_pipeline(with_reassoc(block)), machine,
              corpus_balanced);
    }
  }

  Row chains_plain;
  Row chains_balanced;
  const int chain_runs = std::max(50, runs / 10);
  for (int i = 0; i < chain_runs; ++i) {
    const BasicBlock raw = generate_tuples(
        parse_source(chain_source(static_cast<std::uint64_t>(i) + 1)));
    const BasicBlock plain = run_standard_pipeline(raw);
    measure(plain, machine, chains_plain);
    measure(run_standard_pipeline(with_reassoc(plain)), machine,
            chains_balanced);
  }

  CsvWriter csv("reassoc.csv");
  csv.row({"workload", "variant", "avg_instructions", "avg_critical_path",
           "avg_final_nops"});
  std::cout << pad_right("workload / variant", 32)
            << pad_left("avg insns", 11) << pad_left("crit path", 11)
            << pad_left("final NOPs", 12) << "\n";
  const auto emit = [&](const char* workload, const char* variant,
                        const Row& row) {
    std::cout << pad_right(std::string(workload) + " / " + variant, 32)
              << pad_left(compact_double(row.instructions.mean(), 4), 11)
              << pad_left(compact_double(row.critical_path.mean(), 4), 11)
              << pad_left(compact_double(row.final_nops.mean(), 3), 12)
              << "\n";
    csv.row_of(workload, variant, row.instructions.mean(),
               row.critical_path.mean(), row.final_nops.mean());
  };
  emit("corpus", "standard", corpus_plain);
  emit("corpus", "+reassociation", corpus_balanced);
  emit("reductions", "standard", chains_plain);
  emit("reductions", "+reassociation", chains_balanced);

  std::cout << "\nCSV written to reassoc.csv\n";
  return 0;
}
