// Shared plumbing for the table/figure reproduction binaries.
//
// Every bench prints the paper-style table or ASCII figure to stdout and
// mirrors the raw series into a CSV file in the working directory.
// Workload sizes default to the paper's (16,000 corpus blocks) and can be
// overridden through the PS_CORPUS_RUNS environment variable for quick
// smoke runs. The paper's experiment itself is paper_protocol()
// (core/corpus_runner.hpp); bench_paper runs it and documents its
// observability knobs.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/corpus_runner.hpp"
#include "synth/corpus.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"

namespace pipesched::bench {

/// Corpus size: paper default 16,000, overridable via PS_CORPUS_RUNS.
inline int corpus_runs(int fallback = 16000) {
  if (const char* env = std::getenv("PS_CORPUS_RUNS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return fallback;
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "=============================================================="
               "==========\n"
            << title << "\n(reproduces " << paper_ref
            << " of Nisar & Dietz, 'Optimal Code Scheduling for "
               "Multiple-Pipeline Processors', 1990)\n"
            << "=============================================================="
               "==========\n";
}

}  // namespace pipesched::bench
