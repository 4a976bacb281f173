// Ablation of the search's pruning rules (DESIGN.md experiment index).
//
// The base row is paper_protocol() at a curtail point of 20,000; every
// other row removes one of its rules or adds one extension. For each we
// report mean placements (omega calls), completion rate, and mean final
// NOPs. Soundness (same optimum when completed) is covered by the test
// suite; this bench prices each rule's contribution to search *size*.
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace pipesched;
  bench::banner("Pruning-Rule Ablation", "DESIGN.md ablation index");

  const int runs = bench::corpus_runs(3000);
  CorpusSpec spec;
  spec.total_runs = runs;
  const auto params = corpus_params(spec);

  CorpusRunOptions paper = paper_protocol();
  paper.search.curtail_lambda = 20000;

  struct Variant {
    const char* name;
    CorpusRunOptions options;
  };
  std::vector<Variant> variants;
  const auto vary = [&](const char* name, bool SearchConfig::*rule,
                        bool value) {
    variants.push_back({name, paper});
    variants.back().options.search.*rule = value;
  };
  variants.push_back({"paper protocol", paper});
  vary("no list-schedule seed", &SearchConfig::seed_with_list_schedule,
       false);
  vary("no equivalence [5c]", &SearchConfig::equivalence_prune, false);
  vary("no alpha-beta [6]", &SearchConfig::alpha_beta, false);
  vary("no critical-path bound", &SearchConfig::lower_bound_prune, false);
  vary("+ strong equivalence (ext)", &SearchConfig::strong_equivalence,
       true);
  vary("+ dominance cache (ext)", &SearchConfig::dominance_cache, true);

  CsvWriter csv("ablation_pruning.csv");
  csv.row({"variant", "avg_omega_calls", "pct_completed", "avg_final_nops"});
  std::cout << pad_right("variant", 28) << pad_left("avg omega", 14)
            << pad_left("% complete", 12) << pad_left("avg final NOPs", 16)
            << "\n";

  for (const Variant& variant : variants) {
    const auto records = run_corpus(params, variant.options);
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
