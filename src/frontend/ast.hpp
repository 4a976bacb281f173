// AST for the assignment-statement language of the paper's Figure 3:
//
//   { b = 15; a = b * a; }
//
// The front end exists to feed the scheduler realistic tuple code: straight
// -line assignment statements over scalar variables, integer constants and
// the +, -, *, / operators, with unary negation and parentheses.
//
// A SourceProgram owns its whole tree. Every expression node sits in one
// vector, `exprs`, and names its operands by index (ExprId); every
// identifier is interned once in `names`, and nodes and statements name
// variables by id (NameId). Building a straight-line program therefore
// costs a fixed number of allocations, not one per node and name. Ids are
// local to their program: a Stmt or ExprId means nothing in another one.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/name_table.hpp"

namespace pipesched {

/// Index of an expression node in its program's `exprs`.
using ExprId = std::int32_t;

/// Index of an identifier in its program's `names`.
using NameId = std::int32_t;

struct Expr {
  enum class Kind { Number, Variable, Negate, Add, Sub, Mul, Div };

  Kind kind = Kind::Number;
  int height = 1;            ///< levels in this subtree (a leaf is 1)
  ExprId lhs = -1;           ///< unary operand / binary left
  ExprId rhs = -1;           ///< binary right
  NameId variable = -1;      ///< Kind::Variable
  std::int64_t number = 0;   ///< Kind::Number
};

/// One statement: an assignment, or structured control flow over nested
/// statement lists (the "arbitrary control flow" of the paper's future
/// work, Section 6).
struct Stmt {
  enum class Kind { Assign, If, While };

  Kind kind = Kind::Assign;

  // Assign: target = value;
  NameId target = -1;
  ExprId value = -1;

  // If: if (cond) { then_body } [else { else_body }]
  // While: while (cond) { body } (body stored in then_body)
  ExprId cond = -1;
  std::vector<Stmt> then_body;
  std::vector<Stmt> else_body;

  static Stmt assign(NameId target, ExprId value);
  static Stmt if_else(ExprId cond, std::vector<Stmt> then_body,
                      std::vector<Stmt> else_body);
  static Stmt while_loop(ExprId cond, std::vector<Stmt> body);
};

/// A parsed source program: a statement list, possibly with nested control
/// flow, over one pool of expression nodes and one table of names.
/// Straight-line programs lower to a single basic block.
struct SourceProgram {
  std::vector<Stmt> statements;
  std::vector<Expr> exprs;  ///< every node; operands come before their users
  NameTable names;

  const Expr& expr(ExprId id) const {
    return exprs[static_cast<std::size_t>(id)];
  }
  const std::string& name(NameId id) const { return names.name(id); }

  // Node builders: each appends one node and returns its id.
  ExprId make_number(std::int64_t value);
  ExprId make_variable(std::string_view name);  ///< interns `name`
  ExprId make_negate(ExprId operand);
  ExprId make_binary(Expr::Kind kind, ExprId lhs, ExprId rhs);

  /// True when no statement carries control flow.
  bool is_straight_line() const;

  /// Render back to source text (round-trips through the parser).
  std::string to_string() const;
};

}  // namespace pipesched
