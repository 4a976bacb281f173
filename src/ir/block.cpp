#include "ir/block.hpp"

#include <sstream>

#include "util/check.hpp"

namespace pipesched {

VarId BasicBlock::var_id(std::string_view name) {
  PS_CHECK(!name.empty(), "variable name may not be empty");
  return vars_.intern(name);
}

VarId BasicBlock::find_var(std::string_view name) const {
  return vars_.find(name);
}

const std::string& BasicBlock::var_name(VarId id) const {
  PS_ASSERT(id >= 0 && static_cast<std::size_t>(id) < vars_.size());
  return vars_.name(id);
}

TupleIndex BasicBlock::append(const Tuple& t) {
  const auto index = static_cast<TupleIndex>(tuples_.size());
  validate_tuple(index, t);
  tuples_.push_back(t);
  return index;
}

void BasicBlock::replace_tuples(std::vector<Tuple> tuples) {
  tuples_ = std::move(tuples);
  validate();
}

BasicBlock BasicBlock::with_tuples(std::vector<Tuple> tuples) const {
  BasicBlock out(label_);
  out.vars_ = vars_;
  out.replace_tuples(std::move(tuples));
  return out;
}

void BasicBlock::validate() const {
  for (std::size_t i = 0; i < tuples_.size(); ++i) {
    validate_tuple(static_cast<TupleIndex>(i), tuples_[i]);
  }
}

void BasicBlock::validate_tuple(TupleIndex i, const Tuple& t) const {
  const int arity = opcode_arity(t.op);
  PS_CHECK(arity >= 1 || t.a.is_none(),
           "tuple " << i << ": unexpected operand a");
  PS_CHECK(arity >= 2 || t.b.is_none(),
           "tuple " << i << ": unexpected operand b");

  auto check_operand = [&](const Operand& o, const char* slot) {
    if (o.is_ref()) {
      PS_CHECK(o.ref >= 0 && o.ref < i,
               "tuple " << i << ": operand " << slot
                        << " must reference an earlier tuple, got " << o.ref);
      PS_CHECK(opcode_has_result(tuples_[static_cast<std::size_t>(o.ref)].op),
               "tuple " << i << ": operand " << slot
                        << " references a value-less tuple " << o.ref);
    }
    if (o.is_var()) {
      PS_CHECK(o.var >= 0 &&
                   static_cast<std::size_t>(o.var) < vars_.size(),
               "tuple " << i << ": operand " << slot
                        << " names an unknown variable id " << o.var);
    }
  };
  check_operand(t.a, "a");
  check_operand(t.b, "b");

  switch (t.op) {
    case Opcode::Const:
      PS_CHECK(t.a.is_imm(), "tuple " << i << ": Const needs an immediate");
      break;
    case Opcode::Load:
      PS_CHECK(t.a.is_var(), "tuple " << i << ": Load needs a variable");
      break;
    case Opcode::Store:
      PS_CHECK(t.a.is_var(),
               "tuple " << i << ": Store destination must be a variable");
      PS_CHECK(t.b.is_ref() || t.b.is_imm(),
               "tuple " << i << ": Store value must be a ref or immediate");
      break;
    case Opcode::Mov:
    case Opcode::Neg:
      PS_CHECK(t.a.is_ref() || t.a.is_imm(),
               "tuple " << i << ": unary operand must be a ref or immediate");
      break;
    default:
      PS_CHECK(opcode_is_binary_arith(t.op), "tuple " << i << ": bad opcode");
      PS_CHECK(t.a.is_ref() || t.a.is_imm(),
               "tuple " << i << ": left operand must be a ref or immediate");
      PS_CHECK(t.b.is_ref() || t.b.is_imm(),
               "tuple " << i << ": right operand must be a ref or immediate");
      break;
  }
}

std::string BasicBlock::operand_to_string(const Operand& o) const {
  switch (o.kind) {
    case Operand::Kind::None:
      return "_";
    case Operand::Kind::Var:
      return "#" + var_name(o.var);
    case Operand::Kind::Ref:
      return std::to_string(o.ref + 1);  // 1-based, as in the paper
    case Operand::Kind::Imm:
      return std::string("\"").append(std::to_string(o.imm)).append("\"");
  }
  return "?";
}

std::string BasicBlock::to_string() const {
  std::ostringstream oss;
  if (!label_.empty()) oss << label_ << ":\n";
  for (std::size_t i = 0; i < tuples_.size(); ++i) {
    const Tuple& t = tuples_[i];
    oss << (i + 1) << ": " << opcode_name(t.op);
    const int arity = opcode_arity(t.op);
    if (arity >= 1) oss << ' ' << operand_to_string(t.a);
    if (arity >= 2) oss << ", " << operand_to_string(t.b);
    oss << '\n';
  }
  return oss.str();
}

bool Operand::operator==(const Operand& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case Kind::None:
      return true;
    case Kind::Var:
      return var == other.var;
    case Kind::Ref:
      return ref == other.ref;
    case Kind::Imm:
      return imm == other.imm;
  }
  return false;
}

}  // namespace pipesched
