// Allocation budgets for the per-block layers around the search. Timing on
// a shared host is too noisy to gate, but heap allocations are exact: this
// binary replaces the global operator new with one that counts, and checks
// that parsing, tuple generation, the optimizer, spill insertion, building
// the dependence graph, linear scan and emitting assembly each make a
// fixed number of allocations whatever the block's size, and that a search
// reuses its thread's initial dominance table. It is its own executable
// because the replacement covers the whole program.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "asmout/emitter.hpp"
#include "core/compiler.hpp"
#include "frontend/codegen.hpp"
#include "frontend/opt/passes.hpp"
#include "frontend/parser.hpp"
#include "ir/dag.hpp"
#include "regalloc/regalloc.hpp"
#include "regalloc/spill.hpp"
#include "sched/optimal_scheduler.hpp"
#include "synth/generator.hpp"

namespace {

// Counted only while `g_counting`; the tests are single-threaded.
bool g_counting = false;
std::size_t g_allocations = 0;
std::size_t g_largest = 0;

void* counted_new(std::size_t size) {
  if (g_counting) {
    ++g_allocations;
    g_largest = std::max(g_largest, size);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pipesched {
namespace {

/// Allocations made by fn(), and the largest of them in bytes.
struct Count {
  std::size_t allocations = 0;
  std::size_t largest = 0;
};

template <class Fn>
Count count_allocations(Fn&& fn) {
  g_allocations = 0;
  g_largest = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return {g_allocations, g_largest};
}

/// A per-block layer may allocate this often, whatever the block's size.
constexpr std::size_t kLayerBudget = 16;

/// A register ceiling that forces spill code.
constexpr int kSpillCeiling = 3;

/// The parameters of the first generated block whose optimized size lies
/// in [lo, hi] and, when `must_spill`, whose pressure exceeds
/// kSpillCeiling.
GeneratorParams params_of_size(std::size_t lo, std::size_t hi,
                               bool must_spill = false) {
  GeneratorParams p;
  for (std::uint64_t seed = 1; seed < 5000; ++seed) {
    p.statements = static_cast<int>(lo + hi) / 2;
    p.variables = std::max(3, p.statements / 3);
    p.constants = 3;
    p.seed = seed;
    const BasicBlock block = generate_block(p);
    if (block.size() >= lo && block.size() <= hi &&
        (!must_spill || block_max_live(block) > kSpillCeiling)) {
      return p;
    }
  }
  ADD_FAILURE() << "no generated block of " << lo << ".." << hi << " tuples";
  return p;
}

BasicBlock block_of_size(std::size_t lo, std::size_t hi) {
  return generate_block(params_of_size(lo, hi));
}

struct Size {
  std::size_t lo, hi;
};
constexpr Size kSizes[] = {{8, 12}, {36, 44}, {55, 65}, {130, 150}};

TEST(AllocationBudget, FrontEndAndSpillMakeAFixedNumberOfAllocations) {
  for (const Size size : kSizes) {
    const GeneratorParams params =
        params_of_size(size.lo, size.hi, /*must_spill=*/true);
    const std::string source = generate_source(params).to_string();
    SCOPED_TRACE(std::to_string(params.statements) + " statements");

    SourceProgram program;
    const Count parsed =
        count_allocations([&] { program = parse_source(source); });
    EXPECT_LE(parsed.allocations, kLayerBudget) << "parse_source";

    BasicBlock tuples;
    const Count lowered =
        count_allocations([&] { tuples = generate_tuples(program); });
    EXPECT_LE(lowered.allocations, kLayerBudget) << "generate_tuples";

    BasicBlock block;
    const Count optimized =
        count_allocations([&] { block = run_standard_pipeline(tuples); });
    EXPECT_LE(optimized.allocations, kLayerBudget) << "run_standard_pipeline";
    // perfbench keeps every result of a pass: no slack in the tuples.
    EXPECT_EQ(block.tuples().capacity(), block.size());

    ASSERT_GT(block_max_live(block), kSpillCeiling);
    SpillResult spilled;
    const Count spill = count_allocations(
        [&] { spilled = insert_spill_code(block, kSpillCeiling); });
    EXPECT_GT(spilled.values_spilled, 0);
    EXPECT_LE(spill.allocations, kLayerBudget) << "insert_spill_code";
    EXPECT_EQ(spilled.block.tuples().capacity(), spilled.block.size());
  }
}

TEST(AllocationBudget, LayersMakeAFixedNumberOfAllocations) {
  for (const Size size : kSizes) {
    const BasicBlock block = block_of_size(size.lo, size.hi);
    SCOPED_TRACE(std::to_string(block.size()) + " tuples");
    CompileOptions options;
    options.search.curtail_lambda = 2000;
    options.registers = 64;
    const CompileResult compiled = compile_block(block, options);

    const Count dag = count_allocations([&] { const DepGraph g(block); });
    EXPECT_LE(dag.allocations, kLayerBudget) << "DepGraph";

    const Count scan = count_allocations([&] {
      linear_scan(compiled.block, compiled.schedule.order, options.registers);
    });
    EXPECT_LE(scan.allocations, kLayerBudget) << "linear_scan";

    for (const DelayMechanism mechanism :
         {DelayMechanism::NopPadding, DelayMechanism::ExplicitInterlock,
          DelayMechanism::TeraCount, DelayMechanism::CarpMask}) {
      EmitOptions emit;
      emit.mechanism = mechanism;
      std::string text;
      const Count emitted = count_allocations([&] {
        text = emit_assembly(compiled.block, options.machine,
                             compiled.schedule, compiled.allocation, emit);
      });
      EXPECT_LE(emitted.allocations, kLayerBudget)
          << "emit_assembly, mechanism " << static_cast<int>(mechanism);
      // perfbench keeps every result of a pass: no slack in the string.
      EXPECT_EQ(text.capacity(), text.size());
    }
  }
}

TEST(AllocationBudget, SecondSearchReusesTheDominanceTable) {
  const BasicBlock block = block_of_size(16, 20);
  const DepGraph dag(block);
  const Machine machine = Machine::paper_simulation();
  SearchConfig config;
  ASSERT_TRUE(config.dominance_cache);
  const ScheduleResult first = optimal_schedule(machine, dag, config);
  ASSERT_GT(first.stats.cache_probes, 0u);

  const Count second =
      count_allocations([&] { optimal_schedule(machine, dag, config); });
  // The initial table alone is 1,024 entries of 24 bytes.
  EXPECT_LT(second.largest, std::size_t{24} << 10);
}

}  // namespace
}  // namespace pipesched
