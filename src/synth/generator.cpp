#include "synth/generator.hpp"

#include <algorithm>

#include "frontend/codegen.hpp"
#include "frontend/opt/passes.hpp"
#include "util/check.hpp"

namespace pipesched {

namespace {

enum class Form {
  VConst,        // v = c
  VCopy,         // v = v
  VAddV,         // v = v + v
  VSubV,         // v = v - v
  VMulV,         // v = v * v
  VDivV,         // v = v / v
  VAddC,         // v = v + c
  VMulC,         // v = v * c
  VNeg,          // v = -v
  VMulAdd,       // v = v + v * v
  VCompound,     // v = (v + v) * (v - v)
};

struct FormEntry {
  Form form;
  const char* pattern;
  double weight;
};

// Reconstruction of Table 6 (see header comment).
constexpr FormEntry kForms[] = {
    {Form::VConst, "v = c", 12},
    {Form::VCopy, "v = v", 10},
    {Form::VAddV, "v = v + v", 22},
    {Form::VSubV, "v = v - v", 13},
    {Form::VMulV, "v = v * v", 9},
    {Form::VDivV, "v = v / v", 4},
    {Form::VAddC, "v = v + c", 14},
    {Form::VMulC, "v = v * c", 6},
    {Form::VNeg, "v = -v", 3},
    {Form::VMulAdd, "v = v + v * v", 5},
    {Form::VCompound, "v = (v + v) * (v - v)", 2},
};

class SourceGenerator {
 public:
  explicit SourceGenerator(const GeneratorParams& params)
      : params_(params), rng_(params.seed) {
    PS_CHECK(params.statements >= 1, "need at least one statement");
    PS_CHECK(params.variables >= 1, "need at least one variable");
    PS_CHECK(params.constants >= 1, "need at least one constant");
    for (int v = 0; v < params.variables; ++v) {
      variables_.push_back(std::string("v").append(std::to_string(v)));
    }
    // Distinct small constants; values themselves are immaterial to the
    // scheduling problem but kept distinct so CSE behaves realistically.
    for (int c = 0; c < params.constants; ++c) {
      constant_pool_.push_back(2 + 3 * c);
    }
    for (const FormEntry& f : kForms) weights_.push_back(f.weight);
  }

  SourceProgram run() {
    const auto statements = static_cast<std::size_t>(params_.statements);
    program_.statements.reserve(statements);
    program_.exprs.reserve(kMaxFormNodes * statements);
    program_.names.reserve(
        std::min(variables_.size(), kMaxFormNames * statements));
    for (std::size_t s = 0; s < statements; ++s) {
      program_.statements.push_back(statement());
    }
    return std::move(program_);
  }

 private:
  const std::string& pick_var() {
    return variables_[rng_.next_below(variables_.size())];
  }

  std::int64_t pick_const() {
    return constant_pool_[rng_.next_below(constant_pool_.size())];
  }

  ExprId var() { return program_.make_variable(pick_var()); }
  ExprId num() { return program_.make_number(pick_const()); }

  /// `kind` over a variable drawn now and `right`, drawn before it. A
  /// right operand is always drawn before its left one: the order in
  /// which the corpus and every fingerprint were generated.
  ExprId var_op(Expr::Kind kind, ExprId right) {
    return program_.make_binary(kind, var(), right);
  }

  Stmt statement() {
    const NameId target = program_.names.intern(pick_var());
    ExprId value = -1;
    switch (kForms[rng_.next_weighted(weights_)].form) {
      case Form::VConst:
        value = num();
        break;
      case Form::VCopy:
        value = var();
        break;
      case Form::VAddV:
        value = var_op(Expr::Kind::Add, var());
        break;
      case Form::VSubV:
        value = var_op(Expr::Kind::Sub, var());
        break;
      case Form::VMulV:
        value = var_op(Expr::Kind::Mul, var());
        break;
      case Form::VDivV:
        value = var_op(Expr::Kind::Div, var());
        break;
      case Form::VAddC:
        value = var_op(Expr::Kind::Add, num());
        break;
      case Form::VMulC:
        value = var_op(Expr::Kind::Mul, num());
        break;
      case Form::VNeg:
        value = program_.make_negate(var());
        break;
      case Form::VMulAdd:
        value = var_op(Expr::Kind::Add, var_op(Expr::Kind::Mul, var()));
        break;
      case Form::VCompound: {
        const ExprId difference = var_op(Expr::Kind::Sub, var());
        value = program_.make_binary(Expr::Kind::Mul,
                                     var_op(Expr::Kind::Add, var()),
                                     difference);
        break;
      }
    }
    return Stmt::assign(target, value);
  }

  /// Nodes and names of the largest form, v = (v + v) * (v - v).
  static constexpr std::size_t kMaxFormNodes = 7;
  static constexpr std::size_t kMaxFormNames = 5;

  const GeneratorParams& params_;
  Rng rng_;
  SourceProgram program_;
  std::vector<std::string> variables_;
  std::vector<std::int64_t> constant_pool_;
  std::vector<double> weights_;
};

}  // namespace

const std::vector<StatementForm>& statement_frequency_table() {
  static const std::vector<StatementForm> kTable = [] {
    std::vector<StatementForm> table;
    for (const FormEntry& f : kForms) table.push_back({f.pattern, f.weight});
    return table;
  }();
  return kTable;
}

SourceProgram generate_source(const GeneratorParams& params) {
  return SourceGenerator(params).run();
}

BasicBlock generate_block(const GeneratorParams& params) {
  const SourceProgram source = generate_source(params);
  BasicBlock block =
      generate_tuples(source, "synth_" + std::to_string(params.seed));
  if (params.optimize) block = run_standard_pipeline(block);
  return block;
}

}  // namespace pipesched
