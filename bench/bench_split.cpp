// Section 5.3's proposed block-splitting technique, measured: on very
// large blocks, locally-optimal windows over the list schedule vs. the
// curtailed global search vs. the heuristics.
//
// Series: window sizes {5, 10, 20, 30} plus global search at the same
// total placement budget; for each, mean final NOPs and mean time.
#include <iostream>

#include "bench_common.hpp"
#include "ir/dag.hpp"
#include "sched/greedy_scheduler.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/optimal_scheduler.hpp"
#include "sched/split_scheduler.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

int main() {
  using namespace pipesched;
  bench::banner("Block Splitting for Very Large Blocks", "Section 5.3");

  const int runs = bench::corpus_runs(200);
  const Machine machine = Machine::paper_simulation();
  constexpr std::uint64_t kBudget = 100000;  // placements per block

  struct Row {
    std::string name;
    Accumulator nops;
    Accumulator micros;
    Accumulator completed;
  };
  std::vector<Row> rows;
  rows.push_back({"list schedule", {}, {}, {}});
  rows.push_back({"greedy", {}, {}, {}});
  for (int window : {5, 10, 20, 30}) {
    rows.push_back({"split w=" + std::to_string(window), {}, {}, {}});
  }
  rows.push_back({"global (same budget)", {}, {}, {}});

  Accumulator sizes;
  for (int i = 0; i < runs; ++i) {
    GeneratorParams params;
    params.statements = 45 + i % 40;  // blocks of ~60-120 instructions
    params.variables = 10;
    params.constants = 4;
    params.seed = 9000 + static_cast<std::uint64_t>(i) * 7;
    const BasicBlock block = generate_block(params);
    if (block.empty()) continue;
    sizes.add(static_cast<double>(block.size()));
    const DepGraph dag(block);

    std::size_t row = 0;
    {
      Timer t;
      const Schedule s = list_schedule(machine, dag);
      rows[row].nops.add(s.total_nops());
      rows[row].micros.add(t.micros());
      rows[row].completed.add(100);
      ++row;
    }
    {
      Timer t;
      const Schedule s = greedy_schedule(machine, dag);
      rows[row].nops.add(s.total_nops());
      rows[row].micros.add(t.micros());
      rows[row].completed.add(100);
      ++row;
    }
    for (int window : {5, 10, 20, 30}) {
      Timer t;
      SearchConfig config;
      config.split_window = window;
      config.curtail_lambda =
          kBudget / static_cast<std::uint64_t>(
                        (block.size() + window - 1) / window);
      const ScheduleResult s = split_schedule(machine, dag, config);
      rows[row].nops.add(s.schedule.total_nops());
      rows[row].micros.add(t.micros());
      // "Complete" here means no window was cut: every window reached its
      // local optimum.
      rows[row].completed.add(
          s.stats.curtail_reason == CurtailReason::None ? 100 : 0);
      ++row;
    }
    {
      Timer t;
      SearchConfig config;
      config.curtail_lambda = kBudget;
      config.lower_bound_prune = true;
      const ScheduleResult s = optimal_schedule(machine, dag, config);
      rows[row].nops.add(s.schedule.total_nops());
      rows[row].micros.add(t.micros());
      rows[row].completed.add(s.stats.completed ? 100 : 0);
    }
  }

  std::cout << "blocks: " << sizes.count() << ", mean size "
            << compact_double(sizes.mean(), 4) << " (max " << sizes.max()
            << ")\n\n";
  CsvWriter csv("split.csv");
  csv.row({"scheduler", "avg_final_nops", "avg_micros", "pct_completed"});
  std::cout << pad_right("scheduler", 22) << pad_left("avg NOPs", 10)
            << pad_left("avg us", 10) << pad_left("% complete", 12) << "\n";
  for (const Row& row : rows) {
    std::cout << pad_right(row.name, 22)
              << pad_left(compact_double(row.nops.mean(), 4), 10)
              << pad_left(compact_double(row.micros.mean(), 4), 10)
              << pad_left(compact_double(row.completed.mean(), 4), 12)
              << "\n";
    csv.row_of(row.name, row.nops.mean(), row.micros.mean(),
               row.completed.mean());
  }
  std::cout << "\nCSV written to split.csv\n";
  return 0;
}
