// The 16,000-block experiment corpus (paper Section 5.3).
//
// The paper swept "various numbers of statements, variables, and
// constants" yielding an average of 20.6 instructions per block with a
// tail past 40 instructions (Figure 5). corpus_params() reproduces that
// construction deterministically: a fixed lattice of
// (statements, variables, constants) combinations cycled until
// `total_runs` parameter sets exist, each with a distinct derived seed.
#pragma once

#include <cstdint>
#include <vector>

#include "synth/generator.hpp"

namespace pipesched {

struct CorpusSpec {
  int total_runs = 16000;
  std::uint64_t base_seed = 0x5eed;
  bool optimize = true;
};

/// Deterministic parameter sets for the corpus.
std::vector<GeneratorParams> corpus_params(const CorpusSpec& spec);

}  // namespace pipesched
