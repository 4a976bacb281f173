#include "frontend/codegen.hpp"

#include "util/check.hpp"

namespace pipesched {

BlockEmitter::BlockEmitter(const SourceProgram& program, std::string label)
    : program_(program),
      block_(std::move(label)),
      var_of_name_(program.names.size(), -1),
      current_value_(program.names.size(), -1) {}

void BlockEmitter::reserve(std::size_t tuples, std::size_t vars) {
  block_.reserve(tuples);
  block_.reserve_vars(vars);
}

VarId BlockEmitter::var_of(NameId name) {
  VarId& var = var_of_name_[static_cast<std::size_t>(name)];
  if (var < 0) var = block_.var_id(program_.name(name));
  return var;
}

TupleIndex BlockEmitter::emit_expr(ExprId id) {
  const Expr& e = program_.expr(id);
  switch (e.kind) {
    case Expr::Kind::Number:
      return block_.append(Opcode::Const, Operand::of_imm(e.number));
    case Expr::Kind::Variable: {
      const VarId var = var_of(e.variable);
      TupleIndex& value = current_value(var);
      if (value < 0) value = block_.append(Opcode::Load, Operand::of_var(var));
      return value;
    }
    case Expr::Kind::Negate:
      return block_.append(Opcode::Neg, Operand::of_ref(emit_expr(e.lhs)));
    default: {
      const Opcode op = e.kind == Expr::Kind::Add   ? Opcode::Add
                        : e.kind == Expr::Kind::Sub ? Opcode::Sub
                        : e.kind == Expr::Kind::Mul ? Opcode::Mul
                                                    : Opcode::Div;
      // Evaluation order: left then right, as a one-pass compiler emits.
      const TupleIndex lhs = emit_expr(e.lhs);
      const TupleIndex rhs = emit_expr(e.rhs);
      return block_.append(op, Operand::of_ref(lhs), Operand::of_ref(rhs));
    }
  }
}

void BlockEmitter::emit_assign(NameId target, ExprId value) {
  const TupleIndex computed = emit_expr(value);
  store(var_of(target), computed);
}

void BlockEmitter::emit_store(std::string_view target, TupleIndex value) {
  store(block_.var_id(target), value);
}

void BlockEmitter::store(VarId var, TupleIndex value) {
  block_.append(Opcode::Store, Operand::of_var(var), Operand::of_ref(value));
  current_value(var) = value;
}

TupleIndex& BlockEmitter::current_value(VarId var) {
  // Branch temporaries take ids past the program's names.
  const auto index = static_cast<std::size_t>(var);
  if (index >= current_value_.size()) current_value_.resize(index + 1, -1);
  return current_value_[index];
}

BasicBlock BlockEmitter::take() {
  // append() validated each tuple against the tuples before it, and none
  // changes afterwards, so the block is valid as it stands.
  return std::move(block_);
}

BasicBlock generate_tuples(const SourceProgram& program, std::string label) {
  PS_CHECK(program.is_straight_line(),
           "generate_tuples lowers straight-line programs only; use "
           "generate_program for control flow");
  BlockEmitter emitter(program, std::move(label));
  // Each node lowers to at most one tuple, and each assignment adds a Store.
  emitter.reserve(program.exprs.size() + program.statements.size(),
                  program.names.size());
  for (const Stmt& s : program.statements) {
    emitter.emit_assign(s.target, s.value);
  }
  return emitter.take();
}

}  // namespace pipesched
