#include "frontend/ast.hpp"

#include <algorithm>
#include <charconv>

#include "util/check.hpp"

namespace pipesched {

ExprId SourceProgram::make_number(std::int64_t value) {
  Expr e;
  e.kind = Expr::Kind::Number;
  e.number = value;
  exprs.push_back(e);
  return static_cast<ExprId>(exprs.size() - 1);
}

ExprId SourceProgram::make_variable(std::string_view name) {
  Expr e;
  e.kind = Expr::Kind::Variable;
  e.variable = names.intern(name);
  exprs.push_back(e);
  return static_cast<ExprId>(exprs.size() - 1);
}

ExprId SourceProgram::make_negate(ExprId operand) {
  Expr e;
  e.kind = Expr::Kind::Negate;
  e.height = expr(operand).height + 1;
  e.lhs = operand;
  exprs.push_back(e);
  return static_cast<ExprId>(exprs.size() - 1);
}

ExprId SourceProgram::make_binary(Expr::Kind kind, ExprId lhs, ExprId rhs) {
  PS_ASSERT(kind == Expr::Kind::Add || kind == Expr::Kind::Sub ||
            kind == Expr::Kind::Mul || kind == Expr::Kind::Div);
  Expr e;
  e.kind = kind;
  e.height = std::max(expr(lhs).height, expr(rhs).height) + 1;
  e.lhs = lhs;
  e.rhs = rhs;
  exprs.push_back(e);
  return static_cast<ExprId>(exprs.size() - 1);
}

Stmt Stmt::assign(NameId target, ExprId value) {
  PS_ASSERT(target >= 0 && value >= 0);
  Stmt s;
  s.kind = Kind::Assign;
  s.target = target;
  s.value = value;
  return s;
}

Stmt Stmt::if_else(ExprId cond, std::vector<Stmt> then_body,
                   std::vector<Stmt> else_body) {
  PS_ASSERT(cond >= 0);
  Stmt s;
  s.kind = Kind::If;
  s.cond = cond;
  s.then_body = std::move(then_body);
  s.else_body = std::move(else_body);
  return s;
}

Stmt Stmt::while_loop(ExprId cond, std::vector<Stmt> body) {
  PS_ASSERT(cond >= 0);
  Stmt s;
  s.kind = Kind::While;
  s.cond = cond;
  s.then_body = std::move(body);
  return s;
}

namespace {

void render(const SourceProgram& program, ExprId id, std::string& out) {
  const Expr& e = program.expr(id);
  switch (e.kind) {
    case Expr::Kind::Number: {
      char digits[24];
      const auto end = std::to_chars(digits, digits + sizeof digits, e.number);
      out.append(digits, end.ptr);
      return;
    }
    case Expr::Kind::Variable:
      out += program.name(e.variable);
      return;
    case Expr::Kind::Negate:
      out += "-(";
      render(program, e.lhs, out);
      out += ')';
      return;
    default: {
      const char* op = e.kind == Expr::Kind::Add   ? " + "
                       : e.kind == Expr::Kind::Sub ? " - "
                       : e.kind == Expr::Kind::Mul ? " * "
                                                   : " / ";
      out += '(';
      render(program, e.lhs, out);
      out += op;
      render(program, e.rhs, out);
      out += ')';
      return;
    }
  }
}

void render_stmts(const SourceProgram& program,
                  const std::vector<Stmt>& statements, std::size_t indent,
                  std::string& out) {
  for (const Stmt& s : statements) {
    out.append(2 * indent, ' ');
    switch (s.kind) {
      case Stmt::Kind::Assign:
        out += program.name(s.target);
        out += " = ";
        render(program, s.value, out);
        out += ";\n";
        break;
      case Stmt::Kind::If:
        out += "if (";
        render(program, s.cond, out);
        out += ") {\n";
        render_stmts(program, s.then_body, indent + 1, out);
        out.append(2 * indent, ' ');
        out += '}';
        if (!s.else_body.empty()) {
          out += " else {\n";
          render_stmts(program, s.else_body, indent + 1, out);
          out.append(2 * indent, ' ');
          out += '}';
        }
        out += '\n';
        break;
      case Stmt::Kind::While:
        out += "while (";
        render(program, s.cond, out);
        out += ") {\n";
        render_stmts(program, s.then_body, indent + 1, out);
        out.append(2 * indent, ' ');
        out += "}\n";
        break;
    }
  }
}

}  // namespace

bool SourceProgram::is_straight_line() const {
  return std::all_of(statements.begin(), statements.end(), [](const Stmt& s) {
    return s.kind == Stmt::Kind::Assign;
  });
}

std::string SourceProgram::to_string() const {
  std::string out;
  render_stmts(*this, statements, 0, out);
  return out;
}

}  // namespace pipesched
