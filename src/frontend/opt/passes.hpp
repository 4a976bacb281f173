// The "traditional optimizations" of paper Section 3.1, as one forward
// local-value-numbering (LVN) sweep and one backward dead-code sweep.
//
// The LVN sweep visits each tuple once, with its operands already replaced
// by value numbers, and applies these rules in order:
//
//   copy propagation           a Mov takes its source's value number;
//   constant folding           arithmetic over known constants evaluates at
//     (+ value propagation)    compile time, using the interpreter's own
//                              eval_op so semantics cannot diverge;
//   algebraic simplification   x+0, x*1, x*0, x-x, x/1, 0/x, --x, 0-x, and
//                              the x*2 -> x+x strength reduction (which also
//                              moves work from the multiplier pipeline to
//                              the adder - visible to the scheduler);
//   load forwarding            a Load of a variable whose current value is
//                              known (stored, or loaded since the last
//                              store) reuses that value;
//   common subexpression       a tuple whose opcode and value-numbered
//     elimination              operands match an earlier one reuses it.
//
// Dead code elimination then drops tuples with no live use; a Store is
// live only if it is the variable's last store or a live Load reads it
// before the next store. The paper notes optimized code makes good
// schedules *harder* to find (more dependences per remaining
// instruction), which the corpus experiments reproduce.
#pragma once

#include "ir/block.hpp"

namespace pipesched {

/// Result of one pass application.
struct PassResult {
  BasicBlock block;
  bool changed = false;
};

/// Drops every tuple whose value no live tuple uses, and every Store that
/// neither block exit nor a live Load observes. One backward sweep.
PassResult dead_code_elimination(const BasicBlock& block);

/// Reassociation (extension, NOT part of the standard pipeline so the
/// calibrated corpus results stay comparable to the paper):
/// a left-leaning chain of n same-op Add or Mul tuples has dependence
/// height n; rebuilding it as a balanced tree has height ceil(log2 n),
/// which directly shortens the critical path the scheduler must cover
/// with independent work. Only single-use interior nodes are rebuilt
/// (two's-complement Add/Mul are fully associative and commutative, so
/// semantics are exact). Run DCE afterwards to drop the abandoned
/// originals.
PassResult reassociation(const BasicBlock& block);

/// The LVN sweep followed by dead code elimination. Its output is a
/// fixpoint: running it again changes nothing.
BasicBlock run_standard_pipeline(const BasicBlock& block);

}  // namespace pipesched
