// Allocation budgets for the per-block layers around the search. Timing on
// a shared host is too noisy to gate, but heap allocations are exact: this
// binary replaces the global operator new with one that counts, and checks
// that building the dependence graph, linear scan and emitting assembly
// each make a fixed number of allocations whatever the block's size, and
// that a search reuses its thread's initial dominance table. It is its own
// executable because the replacement covers the whole program.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "asmout/emitter.hpp"
#include "core/compiler.hpp"
#include "ir/dag.hpp"
#include "regalloc/regalloc.hpp"
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

/// The first optimized generated block whose size lies in [lo, hi].
BasicBlock block_of_size(std::size_t lo, std::size_t hi) {
  for (std::uint64_t seed = 1; seed < 5000; ++seed) {
    GeneratorParams p;
    p.statements = static_cast<int>(lo + hi) / 2;
    p.variables = std::max(3, p.statements / 3);
    p.constants = 3;
    p.seed = seed;
    BasicBlock block = generate_block(p);
    if (block.size() >= lo && block.size() <= hi) return block;
  }
  ADD_FAILURE() << "no generated block of " << lo << ".." << hi << " tuples";
  return {};
}

TEST(AllocationBudget, LayersMakeAFixedNumberOfAllocations) {
  struct Size {
    std::size_t lo, hi;
  };
  for (const Size size : {Size{8, 12}, Size{36, 44}, Size{55, 65},
                          Size{130, 150}}) {
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
