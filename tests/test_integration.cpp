// End-to-end tests of the compiler driver (Figure 2's whole back end) and
// the corpus experiment harness.
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "core/corpus_runner.hpp"
#include "ir/dag.hpp"
#include "sim/simulator.hpp"

namespace pipesched {
namespace {

const char* kKernel =
    "t = a * x;\n"
    "u = b * y;\n"
    "s = t + u;\n"
    "r = s / n;\n";

TEST(Compiler, SourceToAssemblyNopPadding) {
  CompileOptions options;
  options.search.curtail_lambda = 50000;
  const CompileResult result = compile_source(kKernel, options);
  EXPECT_FALSE(result.block.empty());
  EXPECT_NE(result.assembly.find("mul"), std::string::npos);
  EXPECT_NE(result.assembly.find("st"), std::string::npos);
  // The scheduler output must validate on the simulator.
  const DepGraph dag(result.block);
  const SimResult sim = validate_padded(options.machine, dag, result.schedule);
  EXPECT_TRUE(sim.ok) << sim.error;
  // Allocation covers the schedule.
  EXPECT_TRUE(verify_allocation(result.block, result.schedule.order,
                                result.allocation));
}

TEST(Compiler, EmitMechanismsAgreeOnInstructionCount) {
  CompileOptions padded;
  padded.emit.mechanism = DelayMechanism::NopPadding;
  CompileOptions interlock;
  interlock.emit.mechanism = DelayMechanism::ImplicitInterlock;
  CompileOptions tagged;
  tagged.emit.mechanism = DelayMechanism::ExplicitInterlock;

  const CompileResult a = compile_source(kKernel, padded);
  const CompileResult b = compile_source(kKernel, interlock);
  const CompileResult c = compile_source(kKernel, tagged);

  const auto count_lines = [](const std::string& text, const char* needle) {
    int n = 0;
    std::size_t pos = 0;
    while ((pos = text.find(needle, pos)) != std::string::npos) {
      ++n;
      ++pos;
    }
    return n;
  };
  // Same schedule, so same real instructions; only padding differs.
  EXPECT_EQ(a.schedule.order, b.schedule.order);
  EXPECT_GT(count_lines(a.assembly, "nop"), 0);
  EXPECT_EQ(count_lines(b.assembly, "nop"), 0);
  EXPECT_GT(count_lines(c.assembly, "wait="), 0);
}

TEST(Compiler, SchedulerKindsRankCorrectly) {
  auto nops_with = [&](SchedulerKind kind) {
    CompileOptions options;
    options.machine = Machine::risc_classic();
    options.scheduler = kind;
    options.search.curtail_lambda = 100000;
    return compile_source(kKernel, options).schedule.total_nops();
  };
  const int original = nops_with(SchedulerKind::Original);
  const int list = nops_with(SchedulerKind::List);
  const int greedy = nops_with(SchedulerKind::Greedy);
  const int optimal = nops_with(SchedulerKind::Optimal);
  EXPECT_LE(optimal, list);
  EXPECT_LE(optimal, greedy);
  EXPECT_LE(optimal, original);
}

TEST(Compiler, UnoptimizedPathWorksToo) {
  CompileOptions options;
  options.optimize = false;
  const CompileResult result = compile_source(kKernel, options);
  // Without the optimizer the block keeps every generated tuple.
  CompileOptions optimized;
  const CompileResult opt = compile_source(kKernel, optimized);
  EXPECT_GE(result.block.size(), opt.block.size());
}

TEST(Compiler, SchedulerKindNamesAreStable) {
  EXPECT_STREQ(scheduler_kind_name(SchedulerKind::Optimal), "optimal");
  EXPECT_STREQ(scheduler_kind_name(SchedulerKind::Exhaustive), "exhaustive");
}

TEST(CorpusRunner, SmallCorpusEndToEnd) {
  CorpusSpec spec;
  spec.total_runs = 120;
  CorpusRunOptions options;
  options.search.curtail_lambda = 20000;
  const auto records = run_corpus(corpus_params(spec), options);
  ASSERT_EQ(records.size(), 120u);

  const CorpusSummary summary = summarize_corpus(records);
  EXPECT_EQ(summary.total.runs, 120u);
  EXPECT_EQ(summary.completed.runs + summary.truncated.runs, 120u);
  // The headline claim at small scale: the vast majority complete, and the
  // optimal schedules need far fewer NOPs than the seeds.
  EXPECT_GT(summary.completed.percent, 90.0);
  EXPECT_LT(summary.completed.avg_final_nops,
            summary.completed.avg_initial_nops);

  const std::string table = render_corpus_summary(summary);
  EXPECT_NE(table.find("Number of Runs"), std::string::npos);
  EXPECT_NE(table.find("Avg. Omega Calls"), std::string::npos);
}

TEST(CorpusRunner, DeterministicAcrossThreadCounts) {
  CorpusSpec spec;
  spec.total_runs = 40;
  CorpusRunOptions one;
  one.threads = 1;
  one.search.curtail_lambda = 5000;
  CorpusRunOptions four;
  four.threads = 4;
  four.search.curtail_lambda = 5000;
  const auto a = run_corpus(corpus_params(spec), one);
  const auto b = run_corpus(corpus_params(spec), four);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].block_size, b[i].block_size) << i;
    EXPECT_EQ(a[i].stats.best_nops, b[i].stats.best_nops) << i;
    EXPECT_EQ(a[i].stats.omega_calls, b[i].stats.omega_calls) << i;
    EXPECT_EQ(a[i].stats.completed, b[i].stats.completed) << i;
  }
}

}  // namespace
}  // namespace pipesched
