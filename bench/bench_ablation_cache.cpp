// Ablation of the state-dominance (transposition) cache.
//
// For representative generated blocks at the paper's Table-1 row sizes,
// the branch-and-bound search runs to exhaustion twice — cache off, cache
// on — and we report nodes expanded, placements (omega calls), wall time,
// and the cache's own traffic. Soundness is asserted inline: both runs
// must report the identical optimal NOP count. The interesting output is
// the node-reduction column: every cache hit prunes a whole subtree the
// uncached search re-explores.
//
// Blocks per size default to 4 (PS_CACHE_BLOCKS overrides); selection
// follows bench_table1's protocol — candidate blocks are probed with the
// cache OFF so that both measured runs provably complete.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "ir/dag.hpp"
#include "sched/optimal_scheduler.hpp"
#include "synth/generator.hpp"
#include "util/check.hpp"
#include "util/strings.hpp"

namespace {

using namespace pipesched;

int blocks_per_size(int fallback = 4) {
  if (const char* env = std::getenv("PS_CACHE_BLOCKS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return fallback;
}

/// Generated blocks with exactly `size` instructions whose uncached
/// search completes within a 10M-placement budget (Table 1's protocol).
std::vector<BasicBlock> find_blocks_of_size(const Machine& machine,
                                            std::size_t size, int count) {
  std::vector<BasicBlock> blocks;
  for (std::uint64_t seed = 1; seed < 50000 && static_cast<int>(blocks.size()) < count;
       ++seed) {
    GeneratorParams params;
    params.statements = static_cast<int>(size) / 2 + 1;
    params.variables = 4 + static_cast<int>(seed % 3);
    params.constants = 2;
    params.seed = seed;
    BasicBlock block = generate_block(params);
    if (block.size() != size) continue;
    SearchConfig probe;
    probe.curtail_lambda = 10'000'000;
    probe.dominance_cache = false;
    const DepGraph dag(block);
    if (!optimal_schedule(machine, dag, probe).stats.completed) continue;
    blocks.push_back(std::move(block));
  }
  return blocks;
}

}  // namespace

int main() {
  using namespace pipesched;
  bench::banner("State-Dominance Cache Ablation",
                "the Table-1 search sizes; cache extension");

  const Machine machine = Machine::paper_simulation();
  const int per_size = blocks_per_size();
  const std::size_t sizes[] = {8, 11, 13, 14, 16, 20, 21, 22};

  CsvWriter csv("ablation_cache.csv");
  csv.row({"instructions", "blocks", "nodes_off", "nodes_on",
           "node_reduction_pct", "omega_off", "omega_on", "cache_probes",
           "cache_hits", "cache_evictions", "secs_off", "secs_on",
           "total_nops"});

  std::cout << pad_left("n", 4) << pad_left("blocks", 8)
            << pad_left("nodes off", 14) << pad_left("nodes on", 14)
            << pad_left("reduction", 11) << pad_left("hit rate", 10)
            << pad_left("time off", 11) << pad_left("time on", 11) << "\n";

  for (const std::size_t size : sizes) {
    const auto blocks = find_blocks_of_size(machine, size, per_size);
    if (blocks.empty()) {
      std::cout << pad_left(std::to_string(size), 4)
                << "  (no completing block found)\n";
      continue;
    }

    std::uint64_t nodes_off = 0, nodes_on = 0;
    std::uint64_t omega_off = 0, omega_on = 0;
    std::uint64_t probes = 0, hits = 0, evictions = 0;
    double secs_off = 0, secs_on = 0;
    int total_nops = 0;

    for (const BasicBlock& block : blocks) {
      const DepGraph dag(block);
      SearchConfig off;
      off.curtail_lambda = 0;  // to exhaustion: provably optimal
      off.dominance_cache = false;
      SearchConfig on = off;
      on.dominance_cache = true;

      const ScheduleResult r_off = optimal_schedule(machine, dag, off);
      const ScheduleResult r_on = optimal_schedule(machine, dag, on);
      PS_CHECK(r_off.stats.completed && r_on.stats.completed,
               "ablation block did not complete");
      PS_CHECK(r_off.schedule.total_nops() == r_on.schedule.total_nops(),
               "dominance cache changed the optimum on a size-"
                   << size << " block: " << r_off.schedule.total_nops()
                   << " vs " << r_on.schedule.total_nops());

      nodes_off += r_off.stats.nodes_expanded;
      nodes_on += r_on.stats.nodes_expanded;
      omega_off += r_off.stats.omega_calls;
      omega_on += r_on.stats.omega_calls;
      probes += r_on.stats.cache_probes;
      hits += r_on.stats.cache_hits;
      evictions += r_on.stats.cache_evictions;
      secs_off += r_off.stats.seconds;
      secs_on += r_on.stats.seconds;
      total_nops += r_on.schedule.total_nops();
    }

    const double reduction =
        nodes_off ? 100.0 * (1.0 - static_cast<double>(nodes_on) /
                                       static_cast<double>(nodes_off))
                  : 0.0;
    const double hit_rate =
        probes ? 100.0 * static_cast<double>(hits) /
                     static_cast<double>(probes)
               : 0.0;

    std::cout << pad_left(std::to_string(size), 4)
              << pad_left(std::to_string(blocks.size()), 8)
              << pad_left(with_commas(nodes_off), 14)
              << pad_left(with_commas(nodes_on), 14)
              << pad_left(compact_double(reduction, 4) + "%", 11)
              << pad_left(compact_double(hit_rate, 4) + "%", 10)
              << pad_left(compact_double(secs_off * 1e3, 4) + "ms", 11)
              << pad_left(compact_double(secs_on * 1e3, 4) + "ms", 11)
              << "\n";
    csv.row_of(size, blocks.size(), nodes_off, nodes_on, reduction,
               omega_off, omega_on, probes, hits, evictions, secs_off,
               secs_on, total_nops);
  }
  std::cout << "\nCSV written to ablation_cache.csv\n";
  return 0;
}
