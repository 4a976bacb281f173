#include "asmout/emitter.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <string_view>

#include "ir/dag.hpp"
#include "util/check.hpp"

namespace pipesched {

namespace {

/// Append `value` in decimal.
void append_int(std::string& out, std::int64_t value) {
  char digits[24];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, value);
  PS_ASSERT(ec == std::errc());
  out.append(digits, end);
}

void append_reg(std::string& out, const Allocation& allocation,
                TupleIndex t) {
  const int reg = allocation.reg_of[static_cast<std::size_t>(t)];
  PS_CHECK(reg >= 0, "tuple " << t + 1 << " has no register assigned");
  out += 'r';
  append_int(out, reg);
}

void append_operand(std::string& out, const BasicBlock& block,
                    const Allocation& allocation, const Operand& o) {
  switch (o.kind) {
    case Operand::Kind::Var:
      out += block.var_name(o.var);
      return;
    case Operand::Kind::Ref:
      append_reg(out, allocation, o.ref);
      return;
    case Operand::Kind::Imm:
      out += '#';
      append_int(out, o.imm);
      return;
    case Operand::Kind::None:
      return;
  }
}

std::string_view mnemonic(Opcode op) {
  switch (op) {
    case Opcode::Const:
      return "li";
    case Opcode::Load:
      return "ld";
    case Opcode::Store:
      return "st";
    case Opcode::Mov:
      return "mov";
    case Opcode::Neg:
      return "neg";
    case Opcode::Add:
      return "add";
    case Opcode::Sub:
      return "sub";
    case Opcode::Mul:
      return "mul";
    case Opcode::Div:
      return "div";
  }
  return "?";
}

/// Width of the mnemonic field; every mnemonic is shorter.
constexpr std::size_t kMnemonicColumn = 5;

void append_instruction(std::string& out, const BasicBlock& block,
                        const Allocation& allocation, TupleIndex t) {
  const Tuple& tuple = block.tuple(t);
  const std::string_view name = mnemonic(tuple.op);
  out += name;
  out.append(kMnemonicColumn - name.size(), ' ');
  if (tuple.op == Opcode::Store) {
    // st value -> variable
    append_operand(out, block, allocation, tuple.b);
    out += ", ";
    append_operand(out, block, allocation, tuple.a);
    return;
  }
  append_reg(out, allocation, t);
  if (opcode_arity(tuple.op) >= 1) {
    out += ", ";
    append_operand(out, block, allocation, tuple.a);
  }
  if (opcode_arity(tuple.op) >= 2) {
    out += ", ";
    append_operand(out, block, allocation, tuple.b);
  }
}

/// Column at which the comment of an instruction line starts.
constexpr std::size_t kCommentColumn = 36;

/// Bytes of one instruction line apart from its variable and pipeline
/// names: indent, mnemonic field, three 21-byte operands and their
/// separators, a delay suffix, the comment column and the comment's two
/// numbers. emit_assembly reserves this much per line so that it
/// allocates once before the final shrink.
constexpr std::size_t kLineBytes = 4 + kMnemonicColumn + 3 * 21 + 2 * 2 +
                                   18 + kCommentColumn + 8 + 11 + 4 + 11 +
                                   1;

}  // namespace

std::vector<int> tera_sync_counts(const BasicBlock& block,
                                  const Machine& machine,
                                  const Schedule& schedule) {
  const DepGraph dag(block);
  std::vector<int> counts(schedule.order.size(), 0);
  for (std::size_t i = 0; i < schedule.order.size(); ++i) {
    const TupleIndex t = schedule.order[i];
    int latest = -1;  // position of the latest constraining instruction
    for (TupleIndex p : dag.preds(t)) {
      latest = std::max(latest, schedule.position_of(p) - 1);
    }
    const auto& units = machine.pipelines_for(block.tuple(t).op);
    if (!units.empty()) {
      for (std::size_t j = i; j-- > 0;) {
        const Opcode other = block.tuple(schedule.order[j]).op;
        if (machine.pipelines_for(other) == units) {
          latest = std::max(latest, static_cast<int>(j));
          break;
        }
      }
    }
    counts[i] = latest < 0 ? 0 : static_cast<int>(i) - latest;
  }
  return counts;
}

std::vector<unsigned> carp_wait_masks(const BasicBlock& block,
                                      const Machine& machine,
                                      const Schedule& schedule) {
  PS_CHECK(machine.pipeline_count() <= 32,
           "CARP masks support at most 32 pipeline units");
  const DepGraph dag(block);
  std::vector<unsigned> masks(schedule.order.size(), 0);
  for (std::size_t i = 0; i < schedule.order.size(); ++i) {
    const TupleIndex t = schedule.order[i];
    const int issue = schedule.issue_cycle[i];
    unsigned mask = 0;
    // Dependences whose producer latency reaches this issue cycle.
    for (TupleIndex p : dag.preds(t)) {
      const int pos = schedule.position_of(p) - 1;
      PS_ASSERT(pos >= 0);
      const PipelineId unit = schedule.unit[static_cast<std::size_t>(pos)];
      if (unit == kNoPipeline) continue;
      if (schedule.issue_cycle[static_cast<std::size_t>(pos)] +
              machine.pipeline(unit).latency ==
          issue) {
        mask |= 1u << unit;
      }
    }
    // A binding enqueue conflict on the instruction's own unit.
    const PipelineId own = schedule.unit[i];
    if (own != kNoPipeline) {
      for (std::size_t j = i; j-- > 0;) {
        if (schedule.unit[j] != own) continue;
        if (schedule.issue_cycle[j] + machine.pipeline(own).enqueue ==
            issue) {
          mask |= 1u << own;
        }
        break;
      }
    }
    masks[i] = mask;
  }
  return masks;
}

std::string emit_assembly(const BasicBlock& block, const Machine& machine,
                          const Schedule& schedule,
                          const Allocation& allocation,
                          const EmitOptions& options) {
  PS_CHECK(allocation.reg_of.size() == block.size(),
           "allocation does not cover the block");
  std::vector<int> sync_counts;
  std::vector<unsigned> wait_masks;
  if (options.mechanism == DelayMechanism::TeraCount) {
    sync_counts = tera_sync_counts(block, machine, schedule);
  } else if (options.mechanism == DelayMechanism::CarpMask) {
    wait_masks = carp_wait_masks(block, machine, schedule);
  }

  const bool nop_lines = options.mechanism == DelayMechanism::NopPadding;
  std::size_t bound = block.label().size() + 2;
  for (std::size_t i = 0; i < schedule.order.size(); ++i) {
    const Tuple& t = block.tuple(schedule.order[i]);
    bound += kLineBytes;
    if (nop_lines) bound += 8 * static_cast<std::size_t>(schedule.nops[i]);
    for (const Operand* o : {&t.a, &t.b}) {
      if (o->is_var()) bound += block.var_name(o->var).size();
    }
    if (options.comments && schedule.unit[i] != kNoPipeline) {
      bound += machine.pipeline(schedule.unit[i]).function.size();
    }
  }
  std::string out;
  out.reserve(bound);

  if (!block.label().empty()) {
    out += block.label();
    out += ":\n";
  }
  for (std::size_t i = 0; i < schedule.order.size(); ++i) {
    if (nop_lines) {
      for (int k = 0; k < schedule.nops[i]; ++k) out += "    nop\n";
    }
    const std::size_t line = out.size();
    out += "    ";
    append_instruction(out, block, allocation, schedule.order[i]);
    if (options.mechanism == DelayMechanism::ExplicitInterlock) {
      out += "  wait=";
      append_int(out, schedule.nops[i]);
    } else if (options.mechanism == DelayMechanism::TeraCount) {
      out += "  sync=";
      append_int(out, sync_counts[i]);
    } else if (options.mechanism == DelayMechanism::CarpMask) {
      out += "  mask=";
      append_int(out, wait_masks[i]);
    }
    if (options.comments) {
      // Pad to the comment column; a longer line keeps all of its text.
      if (out.size() - line < kCommentColumn) {
        out.resize(line + kCommentColumn, ' ');
      } else {
        out += ' ';
      }
      out += "; cycle ";
      append_int(out, schedule.issue_cycle[i]);
      if (schedule.unit[i] != kNoPipeline) {
        out += ", ";
        out += machine.pipeline(schedule.unit[i]).function;
        out += " #";
        append_int(out, schedule.unit[i] + 1);
      }
    }
    out += '\n';
  }
  out.shrink_to_fit();
  return out;
}

}  // namespace pipesched
