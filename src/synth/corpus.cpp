#include "synth/corpus.hpp"

namespace pipesched {

std::vector<GeneratorParams> corpus_params(const CorpusSpec& spec) {
  // Lattice chosen so the optimized blocks average ~20 instructions with
  // a spread from a handful to 45+ (matching Figure 5's distribution
  // shape). More variables => more upward-exposed loads and wider DAGs;
  // fewer variables => longer dependence chains through stores.
  static const int kStatements[] = {5, 7, 9, 11, 14, 16, 18, 21, 24, 28, 32, 36};
  static const int kVariables[] = {3, 4, 5, 6, 8, 10, 12};
  static const int kConstants[] = {1, 2, 3, 4};

  std::vector<GeneratorParams> out;
  out.reserve(static_cast<std::size_t>(spec.total_runs));
  std::size_t si = 0;
  std::size_t vi = 0;
  std::size_t ci = 0;
  for (int run = 0; run < spec.total_runs; ++run) {
    GeneratorParams p;
    p.statements = kStatements[si];
    p.variables = kVariables[vi];
    p.constants = kConstants[ci];
    p.seed = spec.base_seed + static_cast<std::uint64_t>(run) * 0x9e37 + 1;
    p.optimize = spec.optimize;
    out.push_back(p);
    // Advance the lattice coordinates at co-prime strides so combinations
    // interleave instead of clustering.
    si = (si + 1) % (sizeof(kStatements) / sizeof(kStatements[0]));
    if (si == 0) vi = (vi + 1) % (sizeof(kVariables) / sizeof(kVariables[0]));
    if (si == 0 && vi == 0) {
      ci = (ci + 1) % (sizeof(kConstants) / sizeof(kConstants[0]));
    }
  }
  return out;
}

}  // namespace pipesched
