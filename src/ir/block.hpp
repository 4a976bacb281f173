// BasicBlock: a straight-line sequence of tuples plus a variable name table.
//
// Tuples are stored in original (pre-scheduling) order. Instruction
// identities are stable TupleIndex values into this vector; schedulers
// produce permutations of those indices and the block itself is immutable
// during scheduling.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "ir/tuple.hpp"
#include "util/check.hpp"
#include "util/name_table.hpp"

namespace pipesched {

class BasicBlock {
 public:
  BasicBlock() = default;
  explicit BasicBlock(std::string label) : label_(std::move(label)) {}

  const std::string& label() const { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

  // --- variables -----------------------------------------------------------

  /// Intern a variable name, returning its stable id.
  VarId var_id(std::string_view name);

  /// Lookup without interning; -1 when unknown.
  VarId find_var(std::string_view name) const;

  const std::string& var_name(VarId id) const;
  std::size_t var_count() const { return vars_.size(); }

  /// Room for `count` variables in all, so interning that many makes a
  /// fixed number of allocations (see NameTable).
  void reserve_vars(std::size_t count) { vars_.reserve(count); }

  // --- tuples --------------------------------------------------------------

  /// Append a tuple; returns its index. Operands must reference earlier
  /// tuples only (checked).
  TupleIndex append(const Tuple& t);

  TupleIndex append(Opcode op, Operand a = Operand::none(),
                    Operand b = Operand::none()) {
    return append(Tuple{op, a, b});
  }

  const Tuple& tuple(TupleIndex i) const {
    PS_ASSERT(i >= 0 && static_cast<std::size_t>(i) < tuples_.size());
    return tuples_[static_cast<std::size_t>(i)];
  }

  std::size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  const std::vector<Tuple>& tuples() const { return tuples_; }

  /// Room for `count` tuples in all.
  void reserve(std::size_t count) { tuples_.reserve(count); }

  /// Replace the tuple sequence wholesale. Re-validates reference ordering.
  void replace_tuples(std::vector<Tuple> tuples);

  /// This block's label and variable table over `tuples` (validated): how
  /// the optimizer returns a rewritten block without copying the old
  /// tuples.
  BasicBlock with_tuples(std::vector<Tuple> tuples) const;

  /// Check structural invariants (operand kinds match opcode expectations,
  /// references point backward to value-producing tuples). Throws Error on
  /// violation.
  void validate() const;

  /// Human-readable listing in the paper's notation, e.g.
  ///   1: Const "15"
  ///   2: Store #b, 1
  std::string to_string() const;

 private:
  void validate_tuple(TupleIndex i, const Tuple& t) const;
  std::string operand_to_string(const Operand& o) const;

  std::string label_;
  std::vector<Tuple> tuples_;
  NameTable vars_;
};

}  // namespace pipesched
