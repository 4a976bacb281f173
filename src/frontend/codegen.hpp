// Tuple code generation (paper Section 5.2's rules):
//
//   "The first reference to a variable causes a load for that variable to
//    be generated, and a store is generated when a variable is assigned a
//    value."
//
// Within a block the generator tracks each variable's current value tuple,
// so a variable read after an assignment reuses the stored value rather
// than reloading — loads appear only for upward-exposed reads, exactly as
// in the paper's prototype.
//
// BlockEmitter is the reusable per-block lowering engine; generate_tuples
// wraps it for straight-line programs and the CFG builder
// (program_codegen.hpp) drives one emitter per basic block.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "frontend/ast.hpp"
#include "ir/block.hpp"

namespace pipesched {

/// Lowers expressions/assignments of one program into one basic block,
/// maintaining each variable's current value. Variable ids and current
/// values are found through vectors indexed by the program's NameId and
/// the block's VarId, so each name is interned in the block once.
class BlockEmitter {
 public:
  /// `program` must outlive the emitter.
  explicit BlockEmitter(const SourceProgram& program, std::string label = "");

  /// Room for `tuples` tuples and `vars` variables in the block.
  void reserve(std::size_t tuples, std::size_t vars);

  /// Lower an expression; returns the tuple holding its value.
  TupleIndex emit_expr(ExprId e);

  /// Lower `target = value;`.
  void emit_assign(NameId target, ExprId value);

  /// Store an already-computed value into a variable named outside the
  /// program (used for branch-condition temporaries).
  void emit_store(std::string_view target, TupleIndex value);

  bool empty() const { return block_.empty(); }

  /// Finish the block (valid: append() checks every tuple). The emitter
  /// must not be reused.
  BasicBlock take();

 private:
  VarId var_of(NameId name);
  TupleIndex& current_value(VarId var);
  void store(VarId var, TupleIndex value);

  const SourceProgram& program_;
  BasicBlock block_;
  std::vector<VarId> var_of_name_;         ///< by NameId; -1 until used
  std::vector<TupleIndex> current_value_;  ///< by VarId; -1 when none
};

/// Lower a straight-line source program to one basic block (unoptimized).
/// Throws Error when the program contains control flow.
BasicBlock generate_tuples(const SourceProgram& program,
                           std::string label = "");

}  // namespace pipesched
