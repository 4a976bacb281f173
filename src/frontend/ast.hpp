// AST for the assignment-statement language of the paper's Figure 3:
//
//   { b = 15; a = b * a; }
//
// The front end exists to feed the scheduler realistic tuple code: straight
// -line assignment statements over scalar variables, integer constants and
// the +, -, *, / operators, with unary negation and parentheses.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pipesched {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  enum class Kind { Number, Variable, Negate, Add, Sub, Mul, Div };

  Kind kind;
  std::int64_t number = 0;   ///< Kind::Number
  std::string variable;      ///< Kind::Variable
  ExprPtr lhs;               ///< unary operand / binary left
  ExprPtr rhs;               ///< binary right
  int height = 1;            ///< levels in this subtree (a leaf is 1)

  static ExprPtr make_number(std::int64_t value);
  static ExprPtr make_variable(std::string name);
  static ExprPtr make_negate(ExprPtr operand);
  static ExprPtr make_binary(Kind kind, ExprPtr lhs, ExprPtr rhs);
};

/// One statement: an assignment, or structured control flow over nested
/// statement lists (the "arbitrary control flow" of the paper's future
/// work, Section 6).
struct Stmt {
  enum class Kind { Assign, If, While };

  Kind kind = Kind::Assign;

  // Assign: target = value;
  std::string target;
  ExprPtr value;

  // If: if (cond) { then_body } [else { else_body }]
  // While: while (cond) { body } (body stored in then_body)
  ExprPtr cond;
  std::vector<Stmt> then_body;
  std::vector<Stmt> else_body;

  static Stmt assign(std::string target, ExprPtr value);
  static Stmt if_else(ExprPtr cond, std::vector<Stmt> then_body,
                      std::vector<Stmt> else_body);
  static Stmt while_loop(ExprPtr cond, std::vector<Stmt> body);
};

/// A parsed source program: a statement list, possibly with nested control
/// flow. Straight-line programs lower to a single basic block.
struct SourceProgram {
  std::vector<Stmt> statements;

  /// True when no statement carries control flow.
  bool is_straight_line() const;

  /// Render back to source text (round-trips through the parser).
  std::string to_string() const;
};

}  // namespace pipesched
