// Rebuild machinery of reassociation.
//
// A pass walks the input block's tuples in ascending order and, for each,
// decides to keep it or alias its uses to another tuple. The
// rewriter maintains the old-index -> new-index mapping (resolving alias
// chains, which always point backward) and produces a compact, validated
// output block with the variable table preserved.
#pragma once

#include "ir/block.hpp"

namespace pipesched {

class BlockRewriter {
 public:
  explicit BlockRewriter(const BasicBlock& input);

  /// Emit the old tuple unchanged (operands remapped). Calls must proceed
  /// in ascending old-index order across keep/alias_new.
  void keep(TupleIndex old_index);

  /// Future uses of `old_index` resolve to the tuple at `target_new` in
  /// the NEW index space.
  void alias_new(TupleIndex old_index, TupleIndex target_new);

  /// Append a brand-new tuple that replaces no input tuple. Operands are
  /// given directly in the NEW index space (no remapping). Returns its new
  /// index. Used by passes that synthesize instructions (reassociation's
  /// balanced combines).
  TupleIndex emit_new(const Tuple& t);

  /// New-space index of the tuple a processed old index resolves to.
  TupleIndex resolve_new(TupleIndex old_index) const;

  /// Complete the rebuild; `changed` reports whether the output differs
  /// from the input.
  BasicBlock finish();
  bool changed() const;

 private:
  Operand remap(const Operand& o) const;
  void advance(TupleIndex old_index);

  const BasicBlock* input_;
  BasicBlock output_;
  std::vector<TupleIndex> new_of_old_;  // -1 until processed
  std::size_t next_old_ = 0;
  bool structural_change_ = false;
};

}  // namespace pipesched
