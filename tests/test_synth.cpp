// Tests for the synthetic benchmark generator and the 16,000-block corpus
// construction (Section 5.2).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "synth/corpus.hpp"
#include "synth/generator.hpp"

namespace pipesched {
namespace {

TEST(Generator, DeterministicInSeed) {
  GeneratorParams params;
  params.statements = 10;
  params.variables = 5;
  params.constants = 3;
  params.seed = 42;
  EXPECT_EQ(generate_source(params).to_string(),
            generate_source(params).to_string());
  EXPECT_EQ(generate_block(params).to_string(),
            generate_block(params).to_string());
  GeneratorParams other = params;
  other.seed = 43;
  EXPECT_NE(generate_source(other).to_string(),
            generate_source(params).to_string());
}

TEST(Generator, HonoursStatementCount) {
  for (int statements : {1, 5, 20}) {
    GeneratorParams params;
    params.statements = statements;
    params.seed = 3;
    EXPECT_EQ(generate_source(params).statements.size(),
              static_cast<std::size_t>(statements));
  }
}

TEST(Generator, StaysWithinVariableAndConstantPools) {
  GeneratorParams params;
  params.statements = 50;
  params.variables = 3;
  params.constants = 2;
  params.seed = 5;
  params.optimize = false;
  const BasicBlock block = generate_block(params);
  EXPECT_LE(block.var_count(), 3u);
  std::set<std::int64_t> constants;
  for (const Tuple& t : block.tuples()) {
    if (t.op == Opcode::Const) constants.insert(t.a.imm);
  }
  EXPECT_LE(constants.size(), 2u);
}

TEST(Generator, FrequencyTableIsNormalizable) {
  double total = 0;
  for (const StatementForm& f : statement_frequency_table()) {
    EXPECT_GT(f.weight, 0) << f.pattern;
    total += f.weight;
  }
  EXPECT_NEAR(total, 100.0, 1e-9);
}

TEST(Generator, StatementMixRoughlyFollowsTable) {
  // Large sample: the Add-family forms must dominate Mul which dominates
  // Div, mirroring the AlW75-flavoured weights.
  GeneratorParams params;
  params.statements = 4000;
  params.variables = 6;
  params.constants = 3;
  params.seed = 11;
  const SourceProgram source = generate_source(params);
  std::map<Expr::Kind, int> kinds;
  for (const Stmt& s : source.statements) ++kinds[source.expr(s.value).kind];
  EXPECT_GT(kinds[Expr::Kind::Add], kinds[Expr::Kind::Mul]);
  EXPECT_GT(kinds[Expr::Kind::Mul], kinds[Expr::Kind::Div]);
  EXPECT_GT(kinds[Expr::Kind::Sub], 0);
  EXPECT_GT(kinds[Expr::Kind::Negate], 0);
}

TEST(Generator, OptimizedBlocksValidate) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    GeneratorParams params;
    params.statements = 12;
    params.variables = 5;
    params.constants = 3;
    params.seed = seed;
    const BasicBlock block = generate_block(params);
    EXPECT_NO_THROW(block.validate()) << seed;
  }
}

TEST(Corpus, ProducesRequestedRunCount) {
  CorpusSpec spec;
  spec.total_runs = 500;
  const auto params = corpus_params(spec);
  EXPECT_EQ(params.size(), 500u);
  // Seeds are distinct.
  std::set<std::uint64_t> seeds;
  for (const auto& p : params) seeds.insert(p.seed);
  EXPECT_EQ(seeds.size(), params.size());
}

TEST(Corpus, CoversTheParameterLattice) {
  CorpusSpec spec;
  spec.total_runs = 2000;
  const auto params = corpus_params(spec);
  std::set<int> statements;
  std::set<int> variables;
  std::set<int> constants;
  for (const auto& p : params) {
    statements.insert(p.statements);
    variables.insert(p.variables);
    constants.insert(p.constants);
  }
  EXPECT_GE(statements.size(), 8u);
  EXPECT_GE(variables.size(), 5u);
  EXPECT_GE(constants.size(), 3u);
}

TEST(Corpus, BlockSizesAverageNearPaper) {
  // The paper's corpus averaged 20.6 instructions/block with a tail past
  // 40 (Figure 5). Check our reconstruction lands in that regime on a
  // sample.
  CorpusSpec spec;
  spec.total_runs = 400;
  const auto params = corpus_params(spec);
  double total = 0;
  int max_size = 0;
  for (const auto& p : params) {
    const int size = static_cast<int>(generate_block(p).size());
    total += size;
    max_size = std::max(max_size, size);
  }
  const double avg = total / static_cast<double>(params.size());
  EXPECT_GT(avg, 12.0);
  EXPECT_LT(avg, 30.0);
  EXPECT_GT(max_size, 35);
}

}  // namespace
}  // namespace pipesched
