// Recursive-descent parser for the assignment-statement language.
//
// Grammar:
//   program := stmt*
//   stmt    := IDENT '=' expr ';'
//   expr    := term (('+' | '-') term)*
//   term    := factor (('*' | '/') factor)*
//   factor  := '-' factor | '(' expr ')' | IDENT | NUMBER
// Comments run from "//" to end of line. Braces around the program (as in
// the paper's Figure 3) are accepted and ignored.
//
// Nesting is capped at kMaxSourceNesting levels: parentheses, unary minus
// and if/while bodies each nest one level, and an expression tree may be
// at most that high, so a long `a + b + c + ...` chain counts too. Every
// later pass walks the tree recursively, and the cap keeps hostile input
// from overflowing the stack; deeper input raises Error.
//
// The lexer holds one token of lookahead and skips whitespace and comments
// once per token. One pass over the text's bytes first bounds the nodes,
// statements and names it can hold, so a straight-line program is built
// with a fixed number of allocations.
#pragma once

#include <string>

#include "frontend/ast.hpp"

namespace pipesched {

inline constexpr int kMaxSourceNesting = 1000;

/// Parse source text. Throws Error with line/column on malformed input.
SourceProgram parse_source(const std::string& text);

}  // namespace pipesched
