#include "frontend/ast.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace pipesched {

ExprPtr Expr::make_number(std::int64_t value) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::Number;
  e->number = value;
  return e;
}

ExprPtr Expr::make_variable(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::Variable;
  e->variable = std::move(name);
  return e;
}

ExprPtr Expr::make_negate(ExprPtr operand) {
  PS_ASSERT(operand);
  auto e = std::make_unique<Expr>();
  e->kind = Kind::Negate;
  e->height = operand->height + 1;
  e->lhs = std::move(operand);
  return e;
}

ExprPtr Expr::make_binary(Kind kind, ExprPtr lhs, ExprPtr rhs) {
  PS_ASSERT(kind == Kind::Add || kind == Kind::Sub || kind == Kind::Mul ||
            kind == Kind::Div);
  PS_ASSERT(lhs && rhs);
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->height = std::max(lhs->height, rhs->height) + 1;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

Stmt Stmt::assign(std::string target, ExprPtr value) {
  PS_ASSERT(value);
  Stmt s;
  s.kind = Kind::Assign;
  s.target = std::move(target);
  s.value = std::move(value);
  return s;
}

Stmt Stmt::if_else(ExprPtr cond, std::vector<Stmt> then_body,
                   std::vector<Stmt> else_body) {
  PS_ASSERT(cond);
  Stmt s;
  s.kind = Kind::If;
  s.cond = std::move(cond);
  s.then_body = std::move(then_body);
  s.else_body = std::move(else_body);
  return s;
}

Stmt Stmt::while_loop(ExprPtr cond, std::vector<Stmt> body) {
  PS_ASSERT(cond);
  Stmt s;
  s.kind = Kind::While;
  s.cond = std::move(cond);
  s.then_body = std::move(body);
  return s;
}

namespace {

void render(const Expr& e, std::ostringstream& oss) {
  switch (e.kind) {
    case Expr::Kind::Number:
      oss << e.number;
      return;
    case Expr::Kind::Variable:
      oss << e.variable;
      return;
    case Expr::Kind::Negate:
      oss << "-(";
      render(*e.lhs, oss);
      oss << ")";
      return;
    default: {
      const char* op = e.kind == Expr::Kind::Add   ? " + "
                       : e.kind == Expr::Kind::Sub ? " - "
                       : e.kind == Expr::Kind::Mul ? " * "
                                                   : " / ";
      oss << "(";
      render(*e.lhs, oss);
      oss << op;
      render(*e.rhs, oss);
      oss << ")";
      return;
    }
  }
}

void render_stmts(const std::vector<Stmt>& statements, int indent,
                  std::ostringstream& oss) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  for (const Stmt& s : statements) {
    switch (s.kind) {
      case Stmt::Kind::Assign:
        oss << pad << s.target << " = ";
        render(*s.value, oss);
        oss << ";\n";
        break;
      case Stmt::Kind::If:
        oss << pad << "if (";
        render(*s.cond, oss);
        oss << ") {\n";
        render_stmts(s.then_body, indent + 1, oss);
        oss << pad << "}";
        if (!s.else_body.empty()) {
          oss << " else {\n";
          render_stmts(s.else_body, indent + 1, oss);
          oss << pad << "}";
        }
        oss << "\n";
        break;
      case Stmt::Kind::While:
        oss << pad << "while (";
        render(*s.cond, oss);
        oss << ") {\n";
        render_stmts(s.then_body, indent + 1, oss);
        oss << pad << "}\n";
        break;
    }
  }
}

bool any_control_flow(const std::vector<Stmt>& statements) {
  for (const Stmt& s : statements) {
    if (s.kind != Stmt::Kind::Assign) return true;
  }
  return false;
}

}  // namespace

bool SourceProgram::is_straight_line() const {
  return !any_control_flow(statements);
}

std::string SourceProgram::to_string() const {
  std::ostringstream oss;
  render_stmts(statements, 0, oss);
  return oss.str();
}

}  // namespace pipesched
