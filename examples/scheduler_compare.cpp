// Domain example: scheduling-policy shoot-out over a synthetic workload.
//
//   ./scheduler_compare [blocks] [seed]
//
// Generates a batch of optimized blocks (Section 5.2's generator), runs
// the original order, the machine-independent list heuristic, the Gross-
// style greedy baseline, and the branch-and-bound scheduler on each, and
// reports total NOPs, how often each heuristic already ties the optimum,
// and the worst heuristic miss observed.
#include <cstdlib>
#include <iostream>

#include "core/compiler.hpp"
#include "ir/dag.hpp"
#include "sched/greedy_scheduler.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/optimal_scheduler.hpp"
#include "synth/generator.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace pipesched;

  const int blocks = argc > 1 ? std::atoi(argv[1]) : 300;
  const std::uint64_t base_seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;
  const Machine machine = Machine::paper_simulation();
  std::cout << "workload: " << blocks << " optimized blocks, machine "
            << machine.name() << "\n\n";

  struct Tally {
    long total_nops = 0;
    int ties_optimal = 0;
    int worst_excess = 0;
  };
  Tally original;
  Tally list;
  Tally greedy;
  long optimal_total = 0;
  long instructions = 0;
  int scheduled = 0;

  for (int i = 0; i < blocks; ++i) {
    GeneratorParams params;
    params.statements = 6 + i % 12;
    params.variables = 3 + i % 5;
    params.constants = 1 + i % 3;
    params.seed = base_seed + static_cast<std::uint64_t>(i) * 131;
    const BasicBlock block = generate_block(params);
    if (block.empty()) continue;
    ++scheduled;
    instructions += static_cast<long>(block.size());
    const DepGraph dag(block);

    std::vector<TupleIndex> identity(block.size());
    for (std::size_t k = 0; k < identity.size(); ++k) {
      identity[k] = static_cast<TupleIndex>(k);
    }
    const int nops_original =
        evaluate_order(machine, dag, identity).total_nops();
    const int nops_list = list_schedule(machine, dag).total_nops();
    const int nops_greedy = greedy_schedule(machine, dag).total_nops();
    SearchConfig config;
    config.curtail_lambda = 100000;
    const int nops_optimal =
        optimal_schedule(machine, dag, config).schedule.total_nops();

    optimal_total += nops_optimal;
    const auto tally = [&](Tally& t, int nops) {
      t.total_nops += nops;
      t.ties_optimal += nops == nops_optimal;
      t.worst_excess = std::max(t.worst_excess, nops - nops_optimal);
    };
    tally(original, nops_original);
    tally(list, nops_list);
    tally(greedy, nops_greedy);
  }

  std::cout << scheduled << " blocks, " << instructions
            << " instructions total\n\n";
  std::cout << pad_right("scheduler", 12) << pad_left("total NOPs", 12)
            << pad_left("vs optimal", 12) << pad_left("ties opt.", 11)
            << pad_left("worst miss", 12) << "\n";
  const auto row = [&](const char* name, const Tally& t) {
    const double excess =
        optimal_total
            ? 100.0 * static_cast<double>(t.total_nops - optimal_total) /
                  static_cast<double>(optimal_total)
            : 0.0;
    std::cout << pad_right(name, 12) << pad_left(std::to_string(t.total_nops), 12)
              << pad_left(std::string("+")
                              .append(compact_double(excess, 3))
                              .append("%"),
                          12)
              << pad_left(std::to_string(t.ties_optimal) + "/" +
                              std::to_string(scheduled),
                          11)
              << pad_left(std::to_string(t.worst_excess) + " NOPs", 12)
              << "\n";
  };
  row("original", original);
  row("list", list);
  row("greedy", greedy);
  std::cout << pad_right("optimal", 12) << pad_left(std::to_string(optimal_total), 12)
            << pad_left("--", 12) << pad_left("--", 11) << pad_left("--", 12)
            << "\n";
  return 0;
}
