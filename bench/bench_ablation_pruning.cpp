// Ablation of the search's pruning rules (DESIGN.md experiment index).
//
// Each configuration disables or adds one rule relative to the paper's
// default; the corpus is scheduled under a fixed curtail point and we
// report mean placements (omega calls), completion rate, and mean final
// NOPs. Soundness (same optimum when completed) is covered by the test
// suite; this bench prices each rule's contribution to search *size*.
#include <iostream>

#include "bench_common.hpp"
#include "ir/dag.hpp"
#include "sched/optimal_scheduler.hpp"

int main() {
  using namespace pipesched;
  bench::banner("Pruning-Rule Ablation", "DESIGN.md ablation index");

  const int runs = bench::corpus_runs(3000);
  CorpusSpec spec;
  spec.total_runs = runs;
  const auto params = corpus_params(spec);
  const Machine machine = Machine::paper_simulation();
  constexpr std::uint64_t kLambda = 20000;

  struct Variant {
    const char* name;
    SearchConfig config;
  };
  SearchConfig paper;
  paper.curtail_lambda = kLambda;

  std::vector<Variant> variants;
  variants.push_back({"paper default", paper});
  {
    SearchConfig c = paper;
    c.seed_with_list_schedule = false;
    variants.push_back({"no list-schedule seed", c});
  }
  {
    SearchConfig c = paper;
    c.equivalence_prune = false;
    variants.push_back({"no equivalence [5c]", c});
  }
  {
    SearchConfig c = paper;
    c.strong_equivalence = true;
    variants.push_back({"strong equivalence (ext)", c});
  }
  {
    SearchConfig c = paper;
    c.window_prune = false;
    variants.push_back({"no window rule [5a]", c});
  }
  {
    SearchConfig c = paper;
    c.alpha_beta = false;
    variants.push_back({"no alpha-beta [6]", c});
  }
  {
    SearchConfig c = paper;
    c.lower_bound_prune = true;
    variants.push_back({"+ critical-path LB (ext)", c});
  }
  {
    SearchConfig c = paper;
    c.dominance_cache = false;
    variants.push_back({"no dominance cache (ext)", c});
  }
  {
    SearchConfig c = paper;
    c.strong_equivalence = true;
    c.lower_bound_prune = true;
    variants.push_back({"all extensions", c});
  }
  // "paper default" and every row above run with the dominance cache at
  // its default (on); the dedicated cache row and bench_ablation_cache
  // price it in isolation.

  CsvWriter csv("ablation_pruning.csv");
  csv.row({"variant", "avg_omega_calls", "pct_completed", "avg_final_nops"});
  std::cout << pad_right("variant", 28) << pad_left("avg omega", 14)
            << pad_left("% complete", 12) << pad_left("avg final NOPs", 16)
            << "\n";

  for (const Variant& variant : variants) {
    CorpusRunOptions options;
    options.machine = machine;
    options.search = variant.config;
    const auto records = run_corpus(params, options);
    const CorpusSummary summary = summarize_corpus(records);
    std::cout << pad_right(variant.name, 28)
              << pad_left(compact_double(summary.total.average(
                                             &SearchStats::omega_calls),
                                         5),
                          14)
              << pad_left(compact_double(summary.completed.percent, 4), 12)
              << pad_left(compact_double(summary.total.avg_final_nops, 3),
                          16)
              << "\n";
    csv.row_of(variant.name,
               summary.total.average(&SearchStats::omega_calls),
               summary.completed.percent, summary.total.avg_final_nops);
  }
  std::cout << "\nCSV written to ablation_pruning.csv\n";
  return 0;
}
