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
// The B&B variant slice calls optimal_schedule directly on generated
// blocks, once per search variant that none of the slices above reaches
// (see BnbVariantsSlice); the ceiling slice searches the same blocks under
// every register ceiling from 3 to 8 (see BnbCeilingSlice), and both
// run once more with the profiler on, which must walk the same trees
// (see ProfiledSearchWalksTheSameTree).
//
// The assembly slice hashes the emitted bytes of the corpus and regs_tight
// slices (see AssemblySlice), which no count above would notice.
//
// The program slice hashes compile_program's output on the sample programs
// and on generated control-flow programs (see ProgramSlice).
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
#include <fstream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "asmout/emitter.hpp"
#include "core/compiler.hpp"
#include "core/corpus_runner.hpp"
#include "core/program_compiler.hpp"
#include "frontend/codegen.hpp"
#include "frontend/opt/passes.hpp"
#include "frontend/parser.hpp"
#include "frontend/program_codegen.hpp"
#include "ir/dag.hpp"
#include "ir/program_parser.hpp"
#include "regalloc/regalloc.hpp"
#include "sched/optimal_scheduler.hpp"
#include "sim/simulator.hpp"
#include "synth/corpus.hpp"
#include "synth/generator.hpp"
#include "util/check.hpp"
#include "util/profiler.hpp"

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

/// perfbench's two regs_tight strata: long blocks that need spill code
/// and end curtailed, and short ones the pressure-constrained search
/// proves.
std::vector<std::string> regs_tight_sources() {
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
  return sources;
}

/// Compile the regs_tight slice under `options`. `outcomes` counts each
/// search outcome, indexed by SearchOutcome.
Fingerprint regs_tight_fingerprint(const CompileOptions& options,
                                   std::array<int, 4>& outcomes) {
  Fingerprint f;
  for (const std::string& source : regs_tight_sources()) {
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
  // with none: every long block's list seed breaks the ceiling, and the
  // search ends curtailed with the block's own order as its incumbent.
  EXPECT_EQ(outcomes, (std::array<int, 4>{6, 0, 6, 0}));
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
  // CP takes no incumbent from the block's own order: every long block
  // ends without a schedule.
  EXPECT_EQ(outcomes, (std::array<int, 4>{6, 0, 0, 6}));
}

/// Generated, optimized blocks for the B&B variant slice: `count` blocks
/// of 4..27 statements over 3..10 variables when `size` is 0, else the
/// first `count` candidates of exactly `size` tuples (3/8 as many
/// variables, about as many statements as tuples).
std::vector<BasicBlock> variant_blocks(std::size_t count, std::size_t size) {
  std::vector<BasicBlock> blocks;
  for (std::uint64_t k = 0; blocks.size() < count; ++k) {
    EXPECT_LT(k, 2000u) << "no block of " << size << " tuples";
    if (k >= 2000) break;
    const std::uint64_t h = splitmix(0xb4b0a7e5ull + 7919 * size + k);
    const int n = static_cast<int>(size);
    GeneratorParams p;
    p.statements = n == 0 ? 4 + static_cast<int>(k % 24)
                          : n - 8 + static_cast<int>(h % 16);
    p.variables = n == 0 ? 3 + static_cast<int>((h >> 8) % 8) : 3 * n / 8;
    p.constants = 2 + static_cast<int>((h >> 16) % 3);
    p.seed = h;
    BasicBlock block = generate_block(p);
    if (size == 0 || block.size() == size) blocks.push_back(std::move(block));
  }
  return blocks;
}

/// Sum one B&B search per block: final NOPs, final issue cycles, the
/// proven-optimal count and every search counter.
Fingerprint search_fingerprint(const Machine& machine,
                               const SearchConfig& config,
                               const PipelineState& initial,
                               const std::vector<BasicBlock>& blocks) {
  Fingerprint f;
  for (const BasicBlock& block : blocks) {
    const DepGraph dag(block);
    const ScheduleResult r = optimal_schedule(machine, dag, config, initial);
    f.final_nops +=
        static_cast<std::uint64_t>(std::max(0, r.schedule.total_nops()));
    f.code_cycles += static_cast<std::uint64_t>(r.schedule.completion_cycle());
    f.optimal_blocks += r.stats.outcome() == SearchOutcome::Optimal;
    add_search(f, r.stats);
  }
  return f;
}

/// One B&B search setting of a slice below, over its blocks.
struct BnbCase {
  std::string name;
  Machine machine;
  SearchConfig config;
  PipelineState initial;
  const std::vector<BasicBlock>* blocks;
  Fingerprint expected;
};

/// The variant slice's inputs: 300 mixed blocks, and two blocks each of
/// 63, 64, 65 and 128 tuples.
struct VariantInputs {
  std::vector<BasicBlock> mixed = variant_blocks(300, 0);
  std::vector<BasicBlock> edges = [] {
    std::vector<BasicBlock> blocks;
    for (std::size_t size : {63, 64, 65, 128}) {
      for (BasicBlock& b : variant_blocks(2, size)) {
        blocks.push_back(std::move(b));
      }
    }
    return blocks;
  }();
};

// B&B paths no perfbench slice reaches: strong equivalence classes, unit
// groups on a heterogeneous machine, residual occupancy at block entry, a
// lambda small enough to curtail inside a node, the bound without
// alpha-beta or the cache, strong classes under a register ceiling, and
// blocks whose sizes sit on a 64-bit word edge.
std::vector<BnbCase> bnb_variants(const VariantInputs& in) {
  SearchConfig base;
  base.curtail_lambda = 5000;
  base.lower_bound_prune = true;
  SearchConfig strong = base;
  strong.strong_equivalence = true;
  SearchConfig short_lambda = base;
  short_lambda.curtail_lambda = 300;
  SearchConfig bound_only = base;
  bound_only.alpha_beta = false;
  bound_only.dominance_cache = false;
  SearchConfig strong_pressure = strong;
  strong_pressure.max_live_registers = 6;

  return {
      {"strong_equivalence", Machine::paper_simulation(), strong, {},
       &in.mixed,
       {209, 5504, 299, 25022, 57889, 0, 105546, 562, 27831, 5273, 7002, 0}},
      {"asymmetric_alus", Machine::asymmetric_alus(), base, {}, &in.mixed,
       {481, 5776, 283, 74736, 202878, 0, 344062, 0, 97642, 30777, 26540, 0}},
      {"residual_entry", Machine::risc_classic(), base,
       PipelineState{{0, 0, 0, -4}}, &in.mixed,
       {1415, 6710, 269, 149318, 298598, 0, 605250, 0, 103218, 46344, 68674,
        0}},
      {"lambda_300", Machine::paper_simulation(), short_lambda, {},
       &in.mixed,
       {323, 5618, 245, 12500, 33591, 0, 31948, 0, 20001, 1327, 918, 0}},
      {"bound_without_alpha_beta_or_cache", Machine::paper_simulation(),
       bound_only, {}, &in.mixed,
       {214, 5509, 292, 38757, 95649, 0, 253118, 0, 0, 57129, 0, 0}},
      {"strong_equivalence_6_registers", Machine::paper_simulation(),
       strong_pressure, {}, &in.mixed,
       {257, 5552, 289, 85734, 118801, 0, 557454, 859, 25810, 7516, 35792,
        72614}},
      {"word_edge_sizes", Machine::paper_simulation(), strong, {}, &in.edges,
       {4, 644, 6, 1383, 18716, 0, 6437, 840, 17340, 0, 0, 0}},
  };
}

TEST(Fingerprint, BnbVariantsSlice) {
  const VariantInputs inputs;
  for (const BnbCase& c : bnb_variants(inputs)) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(search_fingerprint(c.machine, c.config, c.initial, *c.blocks),
              c.expected);
  }
}

/// asymmetric_alus() with Store on two ports of differing latency: Add,
/// Sub and Neg, which define values, and Store, which defines none, each
/// branch over two unit groups.
Machine asymmetric_alus_and_stores() {
  Machine machine = Machine::asymmetric_alus();
  machine.add_pipeline("store", 1, 1);
  machine.add_pipeline("store", 3, 1);
  machine.map_op(Opcode::Store, "store");
  machine.validate();
  return machine;
}

// B&B under a register ceiling on the variant slice's mixed blocks: every
// ceiling from 3 to 8 at the slice's lambda, and each again at a lambda of
// 100, small enough that the candidate loop also leaves through its
// curtail exits, on the paper's machine and on one whose stores as well
// as some value-defining ops branch over two unit groups. Pressure pruning
// fires at every node that sits at its ceiling, so a change to how the
// loop filters or counts blocked candidates shows here.
std::vector<BnbCase> bnb_ceilings(const VariantInputs& in) {
  struct Row {
    int ceiling;
    std::uint64_t lambda;
    bool unit_groups;
    Fingerprint expected;
  };
  const Row rows[] = {
      {3, 5000, false,
       {963, 6258, 113, 110078, 113012, 0, 779837, 0, 2438, 781, 46357,
        173830}},
      {4, 5000, false,
       {688, 5983, 221, 216380, 231229, 0, 1402873, 0, 10145, 4982, 104706,
        239050}},
      {5, 5000, false,
       {377, 5672, 272, 143881, 172158, 0, 951188, 0, 20648, 7896, 65785,
        148055}},
      {6, 5000, false,
       {257, 5552, 289, 86914, 120658, 0, 561600, 0, 26358, 7645, 36614,
        73410}},
      {7, 5000, false,
       {213, 5508, 298, 34984, 67505, 0, 158902, 0, 26480, 6290, 11098,
        15775}},
      {8, 5000, false,
       {209, 5504, 299, 28574, 61126, 0, 119011, 0, 27319, 5476, 8771, 5222}},
      {3, 100, false,
       {991, 6286, 73, 22017, 22937, 0, 185154, 0, 891, 314, 4538, 41430}},
      {4, 100, false,
       {860, 6155, 122, 18023, 21148, 0, 117578, 0, 2648, 755, 3128, 28005}},
      {5, 100, false,
       {707, 6002, 151, 13656, 19678, 0, 59660, 0, 5428, 861, 1772, 16144}},
      {6, 100, false,
       {643, 5938, 166, 10940, 18769, 0, 33193, 0, 7338, 750, 1102, 8500}},
      {7, 100, false,
       {592, 5887, 169, 8988, 17714, 0, 17252, 0, 8346, 629, 593, 3651}},
      {8, 100, false,
       {579, 5874, 169, 8148, 17367, 0, 12849, 0, 8844, 618, 425, 1369}},
      {3, 100, true,
       {2274, 7569, 46, 22872, 25521, 0, 165116, 0, 2083, 851, 6892, 38457}},
      {4, 100, true,
       {1976, 7271, 59, 18520, 26048, 0, 91778, 0, 6026, 1784, 5737, 23900}},
      {5, 100, true,
       {1676, 6971, 67, 13712, 25704, 0, 42699, 0, 10503, 1770, 3541, 12968}},
      {6, 100, true,
       {1584, 6879, 74, 10790, 25107, 0, 21850, 0, 13113, 1485, 2101, 6915}},
      {7, 100, true,
       {1487, 6782, 81, 8900, 24541, 0, 10617, 0, 14627, 1294, 1029, 3121}},
      {8, 100, true,
       {1433, 6728, 83, 7983, 24309, 0, 6637, 0, 15386, 1219, 529, 1101}},
  };

  std::vector<BnbCase> cases;
  for (const Row& row : rows) {
    SearchConfig config;
    config.curtail_lambda = row.lambda;
    config.lower_bound_prune = true;
    config.max_live_registers = row.ceiling;
    cases.push_back(
        {std::string("ceiling ")
             .append(std::to_string(row.ceiling))
             .append(", lambda ")
             .append(std::to_string(row.lambda))
             .append(row.unit_groups ? ", unit groups" : ""),
         row.unit_groups ? asymmetric_alus_and_stores()
                         : Machine::paper_simulation(),
         config, {}, &in.mixed, row.expected});
  }
  return cases;
}

TEST(Fingerprint, BnbCeilingSlice) {
  const VariantInputs inputs;
  for (const BnbCase& c : bnb_ceilings(inputs)) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(search_fingerprint(c.machine, c.config, c.initial, *c.blocks),
              c.expected);
  }
}

// With the profiler on, the search runs its instantiation that carries
// the phase markers, which no other slice reaches. On every setting of
// the variant and ceiling slices it must return, block by block, the
// schedule and every counter of the unprofiled search.
TEST(Fingerprint, ProfiledSearchWalksTheSameTree) {
  const VariantInputs inputs;
  std::vector<BnbCase> cases = bnb_variants(inputs);
  for (BnbCase& c : bnb_ceilings(inputs)) cases.push_back(std::move(c));

  std::vector<ScheduleResult> plain;
  for (const BnbCase& c : cases) {
    for (const BasicBlock& block : *c.blocks) {
      const DepGraph dag(block);
      plain.push_back(optimal_schedule(c.machine, dag, c.config, c.initial));
    }
  }

  profiler_enable();
  std::size_t k = 0;
  for (const BnbCase& c : cases) {
    SCOPED_TRACE(c.name);
    for (const BasicBlock& block : *c.blocks) {
      const DepGraph dag(block);
      const ScheduleResult r =
          optimal_schedule(c.machine, dag, c.config, c.initial);
      const ScheduleResult& expected = plain[k++];
      EXPECT_EQ(r.schedule.order, expected.schedule.order);
      EXPECT_EQ(r.schedule.nops, expected.schedule.nops);
      EXPECT_EQ(r.schedule.issue_cycle, expected.schedule.issue_cycle);
      EXPECT_EQ(r.schedule.unit, expected.schedule.unit);
      EXPECT_EQ(r.stats.outcome(), expected.stats.outcome());
      EXPECT_EQ(r.stats.curtail_reason, expected.stats.curtail_reason);
      EXPECT_EQ(r.stats.initial_nops, expected.stats.initial_nops);
      EXPECT_EQ(r.stats.best_nops, expected.stats.best_nops);
      for (const SearchCounter& counter : kSearchCounters) {
        EXPECT_EQ(r.stats.*counter.member, expected.stats.*counter.member)
            << counter.key;
      }
    }
  }
  profiler_disable();
  profiler_clear();
}

/// `a` and `b` compiled the same block to the same bytes, schedule,
/// search counters and spill count.
void expect_same_compile(const CompileResult& a, const CompileResult& b) {
  EXPECT_EQ(a.block.to_string(), b.block.to_string());
  EXPECT_EQ(a.values_spilled, b.values_spilled);
  EXPECT_EQ(a.schedule.order, b.schedule.order);
  EXPECT_EQ(a.schedule.nops, b.schedule.nops);
  EXPECT_EQ(a.schedule.issue_cycle, b.schedule.issue_cycle);
  EXPECT_EQ(a.schedule.unit, b.schedule.unit);
  EXPECT_EQ(a.stats.outcome(), b.stats.outcome());
  EXPECT_EQ(a.stats.curtail_reason, b.stats.curtail_reason);
  EXPECT_EQ(a.stats.initial_nops, b.stats.initial_nops);
  EXPECT_EQ(a.stats.best_nops, b.stats.best_nops);
  for (const SearchCounter& c : kSearchCounters) {
    EXPECT_EQ(a.stats.*c.member, b.stats.*c.member) << c.key;
  }
  EXPECT_EQ(a.allocation.reg_of, b.allocation.reg_of);
  EXPECT_EQ(a.assembly, b.assembly);
}

// A register ceiling is one input of compile_block: with
// search.max_live_registers = 16 it spills, searches under the ceiling
// and falls back to the post-spill original order exactly as
// compile_with_register_limit does with 16 registers. On B&B the slice's
// long blocks, and complex_mul under 4 registers and a 10-call curtail
// point, end curtailed from that order as incumbent; on CP complex_mul
// ends without a schedule and takes the fallback.
TEST(Fingerprint, CompileBlockCeilingMatchesRegisterLimit) {
  const auto check = [](const BasicBlock& tuples, CompileOptions limited,
                        int registers) {
    limited.registers = registers;
    CompileOptions ceiling = limited;
    ceiling.registers = CompileOptions{}.registers;
    ceiling.search.max_live_registers = registers;
    const RegisterLimitedResult expected =
        compile_with_register_limit(tuples, limited);
    EXPECT_EQ(expected.values_spilled, expected.compiled.values_spilled);
    expect_same_compile(compile_block(tuples, ceiling), expected.compiled);
    return expected.compiled.stats.outcome();
  };
  int curtailed_blocks = 0;
  for (const std::string& source : regs_tight_sources()) {
    SCOPED_TRACE(source);
    curtailed_blocks += check(generate_tuples(parse_source(source)),
                              regs_tight_options(), 16) ==
                        SearchOutcome::Curtailed;
  }
  EXPECT_EQ(curtailed_blocks, 6);

  const BasicBlock complex_mul = generate_tuples(
      parse_source("re = a * c - b * d;\nim = a * d + b * c;\n"));
  CompileOptions curtailed;
  curtailed.search.curtail_lambda = 10;
  EXPECT_EQ(check(complex_mul, curtailed, 4), SearchOutcome::Curtailed);
  curtailed.search.backend = OptimalBackend::Cp;
  EXPECT_EQ(check(complex_mul, curtailed, 4), SearchOutcome::NoSchedule);

  // Only the optimal scheduler honours a ceiling; the others are refused.
  CompileOptions list;
  list.scheduler = SchedulerKind::List;
  list.search.max_live_registers = 4;
  EXPECT_THROW(compile_block(complex_mul, list), Error);
}

/// FNV-1a 64 over raw bytes: one changed byte anywhere in a slice changes
/// its hash.
class Fnv1a {
 public:
  void add(std::string_view bytes) {
    for (const unsigned char c : bytes) {
      hash_ = (hash_ ^ c) * 0x100000001b3ull;
    }
  }
  void add(const std::vector<int>& values) {
    add(std::string_view(reinterpret_cast<const char*>(values.data()),
                         values.size() * sizeof(int)));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// Emitted bytes, which the count fingerprints above never see: the corpus
// slice's assembly under every delay mechanism with comments on and off,
// the regs_tight slice's register-limited assembly, and the RoundRobin
// register of every value in both slices. Each corpus block is compiled
// once with the default emit options, and compile_source's own assembly
// stands for that variant; the schedule and allocation do not depend on
// the emit options, so the other nine variants re-emit that result.
TEST(Fingerprint, AssemblySlice) {
  CompileOptions options;
  options.search.curtail_lambda = 50000;
  options.search.lower_bound_prune = true;
  std::vector<GeneratorParams> params = corpus_params(CorpusSpec{});
  params.resize(2000);

  constexpr DelayMechanism kMechanisms[] = {
      DelayMechanism::NopPadding, DelayMechanism::ImplicitInterlock,
      DelayMechanism::ExplicitInterlock, DelayMechanism::TeraCount,
      DelayMechanism::CarpMask};
  // Mechanism-major; comments on, then off.
  std::array<Fnv1a, 2 * std::size(kMechanisms)> corpus;
  Fnv1a round_robin;
  for (const GeneratorParams& p : params) {
    const CompileResult out =
        compile_source(generate_source(p).to_string(), options);
    for (std::size_t k = 0; k < corpus.size(); ++k) {
      EmitOptions emit;
      emit.mechanism = kMechanisms[k / 2];
      emit.comments = k % 2 == 0;
      if (k == 0) {
        ASSERT_EQ(emit_assembly(out.block, options.machine, out.schedule,
                                out.allocation, emit),
                  out.assembly);
        corpus[k].add(out.assembly);
      } else {
        corpus[k].add(emit_assembly(out.block, options.machine,
                                    out.schedule, out.allocation, emit));
      }
    }
    round_robin.add(linear_scan(out.block, out.schedule.order,
                                options.registers, AllocPolicy::RoundRobin)
                        .reg_of);
  }

  const CompileOptions tight = regs_tight_options();
  Fnv1a regs_tight;
  for (const std::string& source : regs_tight_sources()) {
    const CompileResult out =
        compile_with_register_limit(generate_tuples(parse_source(source)),
                                    tight)
            .compiled;
    regs_tight.add(out.assembly);
    round_robin.add(linear_scan(out.block, out.schedule.order,
                                tight.registers, AllocPolicy::RoundRobin)
                        .reg_of);
  }

  // Per mechanism: comments on, comments off.
  const std::array<std::uint64_t, 2 * std::size(kMechanisms)> expected{
      0x1f17c934fc55b6e2ull, 0xc54b8c2ecf51775full,  // NopPadding
      0x3c88d685f8ea9f98ull, 0x7fc5c7ec868ba17full,  // ImplicitInterlock
      0x6fd642120f355fb4ull, 0x8a0011f08c711b59ull,  // ExplicitInterlock
      0xf2e9e1aea788d6a9ull, 0x318a8ae8d08b50aaull,  // TeraCount
      0x5ec3ef42490977d4ull, 0x485e7c0de94292c7ull};  // CarpMask
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(corpus[k].value(), expected[k])
        << "0x" << std::hex << corpus[k].value();
  }
  EXPECT_EQ(regs_tight.value(), 0x34754b60791bab1cull)
      << "0x" << std::hex << regs_tight.value();
  EXPECT_EQ(round_robin.value(), 0xed25bcf7b79cf539ull)
      << "0x" << std::hex << round_robin.value();
}

std::string read_sample(const std::string& name) {
  std::ifstream in(std::string(PS_SOURCE_DIR) + "/examples/programs/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A control-flow program from one generated statement list: the first
/// third runs as straight code, the middle third is split between the two
/// arms of an if/else, and the last third forms a while body. The
/// statements are regrouped within the generated program, whose node pool
/// their ids index.
Program control_flow_program(std::uint64_t k) {
  GeneratorParams p;
  p.statements = 3 + static_cast<int>(k % 22);
  p.variables = 3 + static_cast<int>(k % 7);
  p.constants = 2;
  p.seed = splitmix(0x9e0a7a11ull + k);
  SourceProgram source = generate_source(p);
  std::vector<Stmt> statements = std::move(source.statements);
  const std::size_t n = statements.size();
  const auto take = [&](std::size_t from, std::size_t to) {
    return std::vector<Stmt>(
        std::make_move_iterator(statements.begin() + from),
        std::make_move_iterator(statements.begin() + to));
  };
  source.statements = take(0, n / 3);
  const std::size_t middle = n / 3 + (2 * n / 3 - n / 3) / 2;
  const ExprId if_cond = source.make_variable("v0");
  source.statements.push_back(Stmt::if_else(
      if_cond, take(n / 3, middle), take(middle, 2 * n / 3)));
  const ExprId while_cond = source.make_variable("v1");
  source.statements.push_back(
      Stmt::while_loop(while_cond, take(2 * n / 3, n)));
  return generate_program(source);
}

// compile_program's output, which no slice above reaches: the assembly
// (labels, terminators and every block body) and each block's seed and
// final NOPs, omega calls and chained flag. The inputs are the three
// sample programs and 200 generated control-flow programs, each under
// both boundary modes on a uniform and a heterogeneous machine.
TEST(Fingerprint, ProgramSlice) {
  std::vector<Program> programs;
  for (const char* name : {"clamp_loop.ps", "complex_mul.ps"}) {
    programs.push_back(generate_program(parse_source(read_sample(name))));
  }
  programs.push_back(parse_program_text(read_sample("countdown.ptuples")));
  for (std::uint64_t k = 0; k < 200; ++k) {
    programs.push_back(control_flow_program(k));
  }

  Fnv1a hash;
  std::size_t blocks = 0;
  std::size_t chained = 0;
  for (const Machine& machine :
       {Machine::paper_simulation(), Machine::asymmetric_alus()}) {
    for (BoundaryMode boundary : {BoundaryMode::Drain, BoundaryMode::Chain}) {
      ProgramCompileOptions options;
      options.block.machine = machine;
      options.block.search.curtail_lambda = 2000;
      options.boundary = boundary;
      for (const Program& program : programs) {
        const ProgramCompileResult out = compile_program(program, options);
        hash.add(out.assembly);
        for (const CompiledBlock& b : out.blocks) {
          hash.add({b.stats.initial_nops, b.stats.best_nops,
                    static_cast<int>(b.stats.omega_calls), b.chained ? 1 : 0});
          ++blocks;
          chained += b.chained;
        }
      }
    }
  }
  EXPECT_EQ(blocks, 5648u);
  EXPECT_EQ(chained, 806u);
  EXPECT_EQ(hash.value(), 0x3365a3acf316105dull)
      << "0x" << std::hex << hash.value();
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
