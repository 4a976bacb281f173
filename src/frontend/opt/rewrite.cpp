#include "frontend/opt/rewrite.hpp"

#include "util/check.hpp"

namespace pipesched {

BlockRewriter::BlockRewriter(const BasicBlock& input)
    : input_(&input), output_(input.with_tuples({})) {
  new_of_old_.assign(input.size(), -1);
}

void BlockRewriter::advance(TupleIndex old_index) {
  PS_ASSERT(static_cast<std::size_t>(old_index) == next_old_ &&
            "passes must process tuples in ascending order");
  ++next_old_;
}

Operand BlockRewriter::remap(const Operand& o) const {
  if (!o.is_ref()) return o;
  PS_CHECK(static_cast<std::size_t>(o.ref) < next_old_,
           "pass bug: operand references unprocessed tuple " << o.ref + 1);
  return Operand::of_ref(new_of_old_[static_cast<std::size_t>(o.ref)]);
}

void BlockRewriter::keep(TupleIndex old_index) {
  advance(old_index);
  const Tuple& t = input_->tuple(old_index);
  Tuple out = t;
  out.a = remap(t.a);
  out.b = remap(t.b);
  if (!(out == t)) structural_change_ = true;
  new_of_old_[static_cast<std::size_t>(old_index)] = output_.append(out);
}

void BlockRewriter::alias_new(TupleIndex old_index, TupleIndex target_new) {
  advance(old_index);
  PS_CHECK(target_new >= 0 &&
               static_cast<std::size_t>(target_new) < output_.size(),
           "alias_new target out of range");
  new_of_old_[static_cast<std::size_t>(old_index)] = target_new;
  structural_change_ = true;
}

TupleIndex BlockRewriter::emit_new(const Tuple& t) {
  structural_change_ = true;
  return output_.append(t);
}

TupleIndex BlockRewriter::resolve_new(TupleIndex old_index) const {
  PS_ASSERT(static_cast<std::size_t>(old_index) < next_old_);
  return new_of_old_[static_cast<std::size_t>(old_index)];
}

BasicBlock BlockRewriter::finish() {
  PS_ASSERT(next_old_ == input_->size() &&
            "every input tuple must be processed");
  output_.validate();
  return std::move(output_);
}

bool BlockRewriter::changed() const { return structural_change_; }

}  // namespace pipesched
