// Exact-count fingerprints: perfbench's three workloads and the paper's
// experiment, each on a fixed slice.
//
// Each perfbench slice compiles its blocks through the same public entry
// points and configuration perfbench uses (perfbench/README.md):
//
//   corpus        the first 2,000 corpus_params blocks at base seed 0x5eed,
//                 compile_source, lambda = 50,000, critical-path bound on;
//   large_blocks  12 generated blocks of 60..250 optimized tuples,
//                 compile_source, lambda = 10,000, bound on, 64 registers;
//   regs_tight    12 register-starved blocks, parse + codegen +
//                 compile_with_register_limit, 16 registers,
//                 lambda = 10,000; once on B&B, as perfbench runs it,
//                 and once on the CP backend.
//
// The paper slice runs run_corpus over the same 2,000 corpus_params blocks
// under paper_protocol(), the configuration of Table 7's first row, so a
// change of a search default cannot move the paper's experiment unseen.
//
// The fingerprint sums the exact fields over the slice: final NOPs,
// simulated code cycles (perfbench slices only: a corpus record keeps no
// schedule), the proven-optimal count, nodes, omega calls and every prune
// counter; regs_tight also counts each search outcome. Timing never enters
// it, so a pure-speed or pure-deletion change must reproduce every
// constant below bit for bit. A change that alters search behaviour on
// purpose updates the constants and records the old and new values in
// CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "core/corpus_runner.hpp"
#include "frontend/codegen.hpp"
#include "frontend/opt/passes.hpp"
#include "frontend/parser.hpp"
#include "ir/dag.hpp"
#include "sim/simulator.hpp"
#include "synth/corpus.hpp"
#include "synth/generator.hpp"

namespace pipesched {
namespace {

/// The outcome and work totals first, then the seven prune counters in
/// SearchStats order.
struct Fingerprint {
  std::uint64_t final_nops = 0;
  std::uint64_t code_cycles = 0;
  std::uint64_t optimal_blocks = 0;
  std::uint64_t nodes = 0;
  std::uint64_t omega_calls = 0;
  std::uint64_t prune_window = 0;
  std::uint64_t prune_readiness = 0;
  std::uint64_t prune_equivalence = 0;
  std::uint64_t prune_alpha_beta = 0;
  std::uint64_t prune_lower_bound = 0;
  std::uint64_t prune_dominance = 0;
  std::uint64_t prune_pressure = 0;

  bool operator==(const Fingerprint&) const = default;
};

/// Prints in initializer order, so a deliberate change can paste the new
/// constants straight from the failure message.
std::ostream& operator<<(std::ostream& os, const Fingerprint& f) {
  return os << "{" << f.final_nops << ", " << f.code_cycles << ", "
            << f.optimal_blocks << ", " << f.nodes << ", " << f.omega_calls
            << ", " << f.prune_window << ", " << f.prune_readiness << ", "
            << f.prune_equivalence << ", " << f.prune_alpha_beta << ", "
            << f.prune_lower_bound << ", " << f.prune_dominance << ", "
            << f.prune_pressure << "}";
}

/// Add one search's work and prune counters.
void add_search(Fingerprint& f, const SearchStats& s) {
  f.nodes += s.nodes_expanded;
  f.omega_calls += s.omega_calls;
  f.prune_window += s.pruned_window;
  f.prune_readiness += s.pruned_readiness;
  f.prune_equivalence += s.pruned_equivalence;
  f.prune_alpha_beta += s.pruned_alpha_beta;
  f.prune_lower_bound += s.pruned_lower_bound;
  f.prune_dominance += s.pruned_dominance;
  f.prune_pressure += s.pruned_pressure;
}

/// Add one compiled block, replaying its schedule on the simulator the way
/// perfbench's correctness gate does.
void add_block(Fingerprint& f, const CompileResult& out,
               const Machine& machine) {
  const DepGraph dag(out.block);
  const SimResult sim = validate_padded(machine, dag, out.schedule);
  ASSERT_TRUE(sim.ok) << sim.error;
  const SearchStats& s = out.stats;
  f.final_nops +=
      static_cast<std::uint64_t>(std::max(0, out.schedule.total_nops()));
  f.code_cycles += static_cast<std::uint64_t>(sim.completion_cycle);
  f.optimal_blocks += s.completed && s.feasible;
  add_search(f, s);
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

TEST(Fingerprint, CorpusSlice) {
  CompileOptions options;
  options.search.curtail_lambda = 50000;
  options.search.lower_bound_prune = true;
  std::vector<GeneratorParams> params = corpus_params(CorpusSpec{});
  params.resize(2000);

  Fingerprint f;
  for (const GeneratorParams& p : params) {
    add_block(f, compile_source(generate_source(p).to_string(), options),
              options.machine);
  }
  const Fingerprint expected{1544, 37772, 2000, 224926, 455362,
                             0, 1190988, 0, 189215, 42692, 81791, 0};
  EXPECT_EQ(f, expected);
}

TEST(Fingerprint, LargeBlocksSlice) {
  CompileOptions options;
  options.search.curtail_lambda = 10000;
  options.search.lower_bound_prune = true;
  options.registers = 64;
  // perfbench's three strata (wide, deep, big), four blocks each; a
  // candidate is kept when its optimized size falls in its stratum.
  struct Stratum {
    int vars_lo, vars_hi, statements_lo, statements_hi, size_lo, size_hi;
  };
  constexpr Stratum kStrata[] = {
      {18, 24, 60, 200, 60, 99},
      {7, 9, 250, 600, 100, 159},
      {12, 24, 300, 600, 160, 250},
  };
  constexpr std::size_t kPerStratum = 4;

  std::vector<std::string> sources;
  std::size_t taken[std::size(kStrata)] = {};
  for (std::uint64_t k = 0; sources.size() < kPerStratum * std::size(kStrata);
       ++k) {
    ASSERT_LT(k, 10000u) << "block selection ran out of candidates";
    const std::size_t which = k % std::size(kStrata);
    if (taken[which] == kPerStratum) continue;
    const Stratum& s = kStrata[which];
    const std::uint64_t h = splitmix(0x1a26eb10c45ull + k);
    GeneratorParams p;
    p.variables = s.vars_lo + static_cast<int>(
                                  h % static_cast<std::uint64_t>(
                                          s.vars_hi - s.vars_lo + 1));
    p.statements = s.statements_lo +
                   static_cast<int>((h >> 8) %
                                    static_cast<std::uint64_t>(
                                        s.statements_hi - s.statements_lo + 1));
    p.constants = 4;
    p.seed = h;
    const SourceProgram program = generate_source(p);
    const int n = static_cast<int>(
        run_standard_pipeline(generate_tuples(program)).size());
    if (n < s.size_lo || n > s.size_hi) continue;
    sources.push_back(program.to_string());
    ++taken[which];
  }

  Fingerprint f;
  for (const std::string& source : sources) {
    add_block(f, compile_source(source, options), options.machine);
  }
  const Fingerprint expected{258, 1869, 3, 31273, 99966,
                             0, 414300, 0, 66607, 2098, 14652, 0};
  EXPECT_EQ(f, expected);
}

/// perfbench's regs_tight options: 16 registers, lambda = 10,000.
CompileOptions regs_tight_options() {
  CompileOptions options;
  options.registers = 16;
  options.search.curtail_lambda = 10000;
  return options;
}

/// Compile perfbench's two regs_tight strata under `options`: long blocks
/// that need spill code and mostly end without an incumbent, and short
/// ones the pressure-constrained search proves. `outcomes` counts each
/// search outcome, indexed by SearchOutcome.
Fingerprint regs_tight_fingerprint(const CompileOptions& options,
                                   std::array<int, 4>& outcomes) {
  std::vector<std::string> sources;
  const auto add = [&](int count, int lo, int hi) {
    for (int i = 0; i < count; ++i) {
      GeneratorParams p;
      p.statements = lo + (hi - lo) * i / (count - 1);
      p.variables = 40 + i % 11;
      p.constants = 4;
      p.seed = splitmix(0x4e6517a11ull + sources.size());
      sources.push_back(generate_source(p).to_string());
    }
  };
  add(6, 60, 300);
  add(6, 16, 28);

  Fingerprint f;
  for (const std::string& source : sources) {
    const RegisterLimitedResult limited = compile_with_register_limit(
        generate_tuples(parse_source(source)), options);
    add_block(f, limited.compiled, options.machine);
    ++outcomes[static_cast<std::size_t>(limited.compiled.stats.outcome())];
  }
  return f;
}

TEST(Fingerprint, RegsTightSlice) {
  std::array<int, 4> outcomes{};
  const Fingerprint f = regs_tight_fingerprint(regs_tight_options(), outcomes);
  const Fingerprint expected{368, 1654, 6, 67686, 69051,
                             0, 1611310, 0, 1377, 0, 46918, 309801};
  EXPECT_EQ(f, expected);
  // Optimal, proven infeasible, curtailed with a schedule, curtailed
  // with none: every long block ends without a schedule.
  EXPECT_EQ(outcomes, (std::array<int, 4>{6, 0, 0, 6}));
}

// The same slice on the CP backend: its pressure feasibility walk, probe
// pressure checks and failed-state memo all run here, so a change to any
// of them shows in these counts.
TEST(Fingerprint, RegsTightSliceCp) {
  CompileOptions options = regs_tight_options();
  options.search.backend = OptimalBackend::Cp;
  std::array<int, 4> outcomes{};
  const Fingerprint f = regs_tight_fingerprint(options, outcomes);
  const Fingerprint expected{368, 1654, 6, 67035, 67029,
                             0, 658, 0, 10, 0, 47039, 306548};
  EXPECT_EQ(f, expected);
  EXPECT_EQ(outcomes, (std::array<int, 4>{6, 0, 0, 6}));
}

TEST(Fingerprint, PaperProtocolSlice) {
  std::vector<GeneratorParams> params = corpus_params(CorpusSpec{});
  params.resize(2000);

  Fingerprint f;
  for (const RunRecord& r : run_corpus(params, paper_protocol())) {
    ASSERT_TRUE(r.error.empty()) << r.error;
    f.final_nops += static_cast<std::uint64_t>(std::max(0, r.stats.best_nops));
    f.optimal_blocks += r.stats.outcome() == SearchOutcome::Optimal;
    add_search(f, r.stats);
  }
  const Fingerprint expected{1592, 0, 1955, 1685577, 3393571,
                             0, 15779658, 0, 1063537, 645928, 0, 0};
  EXPECT_EQ(f, expected);
}

}  // namespace
}  // namespace pipesched
