#include "machine/machine.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace pipesched {

Machine::Machine(std::string name)
    : name_(std::move(name)),
      op_map_(static_cast<std::size_t>(kOpcodeCount)) {}

PipelineId Machine::add_pipeline(std::string function, int latency,
                                 int enqueue) {
  PS_CHECK(latency >= 1, "pipeline latency must be >= 1, got " << latency);
  PS_CHECK(enqueue >= 1, "pipeline enqueue time must be >= 1, got " << enqueue);
  PS_CHECK(latency <= kMaxPipelineCycles, "pipeline latency must be <= "
                                              << kMaxPipelineCycles << ", got "
                                              << latency);
  PS_CHECK(enqueue <= kMaxPipelineCycles, "pipeline enqueue time must be <= "
                                              << kMaxPipelineCycles << ", got "
                                              << enqueue);
  PS_CHECK(!function.empty(), "pipeline function name may not be empty");
  PS_CHECK(pipelines_.size() < kMaxPipelines,
           "machine '" << name_ << "' may have at most " << kMaxPipelines
                       << " pipelines");
  pipelines_.push_back({std::move(function), latency, enqueue});
  rebuild_unit_groups();
  return static_cast<PipelineId>(pipelines_.size() - 1);
}

void Machine::map_op(Opcode op, const std::string& function) {
  std::vector<PipelineId> matches;
  for (std::size_t i = 0; i < pipelines_.size(); ++i) {
    if (pipelines_[i].function == function) {
      matches.push_back(static_cast<PipelineId>(i));
    }
  }
  PS_CHECK(!matches.empty(),
           "machine '" << name_ << "' has no pipeline with function '"
                       << function << "'");
  map_op(op, matches);
}

void Machine::map_op(Opcode op, const std::vector<PipelineId>& pipelines) {
  auto& mapped = op_map_[static_cast<std::size_t>(op)];
  for (PipelineId id : pipelines) {
    PS_CHECK(id >= 0 && static_cast<std::size_t>(id) < pipelines_.size(),
             "unknown pipeline id " << id);
    if (std::find(mapped.begin(), mapped.end(), id) == mapped.end()) {
      mapped.push_back(id);
    }
  }
  rebuild_unit_groups();
}

int Machine::latency_for(Opcode op) const {
  const auto& mapped = pipelines_for(op);
  int best = 0;
  for (PipelineId id : mapped) {
    const int latency = pipeline(id).latency;
    if (best == 0 || latency < best) best = latency;
  }
  return best;
}

int Machine::enqueue_for(Opcode op) const {
  const auto& mapped = pipelines_for(op);
  int best = 0;
  for (PipelineId id : mapped) {
    const int enqueue = pipeline(id).enqueue;
    if (best == 0 || enqueue < best) best = enqueue;
  }
  return best;
}

void Machine::rebuild_unit_groups() {
  for (int op = 0; op < kOpcodeCount; ++op) {
    std::vector<std::vector<PipelineId>> groups;
    for (PipelineId id : pipelines_for(static_cast<Opcode>(op))) {
      const PipelineDesc& desc = pipeline(id);
      bool placed = false;
      for (auto& group : groups) {
        const PipelineDesc& head = pipeline(group.front());
        if (head.latency == desc.latency && head.enqueue == desc.enqueue) {
          group.push_back(id);
          placed = true;
          break;
        }
      }
      if (!placed) groups.push_back({id});
    }
    unit_groups_[static_cast<std::size_t>(op)] = std::move(groups);
  }
}

bool Machine::has_heterogeneous_alternatives() const {
  for (int op = 0; op < kOpcodeCount; ++op) {
    if (unit_groups(static_cast<Opcode>(op)).size() > 1) return true;
  }
  return false;
}

int Machine::max_latency() const {
  int best = 0;
  for (const auto& p : pipelines_) best = std::max(best, p.latency);
  return best;
}

void Machine::validate() const {
  PS_CHECK(!pipelines_.empty(), "machine '" << name_ << "' has no pipelines");
  for (const auto& p : pipelines_) {
    PS_CHECK(p.latency >= 1 && p.enqueue >= 1,
             "machine '" << name_ << "': non-positive pipeline parameters");
  }
}

std::string Machine::to_string() const {
  std::ostringstream oss;
  oss << "machine " << name_ << "\n";
  oss << pad_right("Pipeline Function", 20) << pad_right("Id", 5)
      << pad_right("Latency", 9) << "Enqueue Time\n";
  for (std::size_t i = 0; i < pipelines_.size(); ++i) {
    oss << pad_right(pipelines_[i].function, 20)
        << pad_right(std::to_string(i + 1), 5)
        << pad_right(std::to_string(pipelines_[i].latency), 9)
        << pipelines_[i].enqueue << "\n";
  }
  oss << "\n" << pad_right("Operation", 12) << "Pipeline Set\n";
  for (int op = 0; op < kOpcodeCount; ++op) {
    const auto& mapped = op_map_[static_cast<std::size_t>(op)];
    oss << pad_right(opcode_name(static_cast<Opcode>(op)), 12) << "{";
    for (std::size_t i = 0; i < mapped.size(); ++i) {
      if (i) oss << ", ";
      oss << mapped[i] + 1;
    }
    oss << "}\n";
  }
  return oss.str();
}

Machine Machine::paper_simulation() {
  // Table 4 lists exactly two pipelines; operations outside Table 5's
  // mapping (Add, Sub, Neg, Const, Store, Mov) are single-cycle and use no
  // pipelined resource (sigma = empty), which is what makes the paper's
  // average *final* NOP count (~0.67) reachable: only load and multiply
  // latencies ever force delays.
  Machine m("paper-simulation");
  m.add_pipeline("loader", 2, 1);
  m.add_pipeline("multiplier", 4, 2);
  m.map_op(Opcode::Load, "loader");
  m.map_op(Opcode::Mul, "multiplier");
  m.map_op(Opcode::Div, "multiplier");
  m.validate();
  return m;
}

Machine Machine::paper_example() {
  Machine m("paper-example");
  m.add_pipeline("loader", 2, 1);
  m.add_pipeline("loader", 2, 1);
  m.add_pipeline("adder", 4, 3);
  m.add_pipeline("adder", 4, 3);
  m.add_pipeline("multiplier", 4, 2);
  m.map_op(Opcode::Load, "loader");
  m.map_op(Opcode::Add, "adder");
  m.map_op(Opcode::Sub, "adder");
  m.map_op(Opcode::Neg, "adder");
  m.map_op(Opcode::Mul, "multiplier");
  m.map_op(Opcode::Div, "multiplier");
  m.validate();
  return m;
}

Machine Machine::risc_classic() {
  Machine m("risc-classic");
  m.add_pipeline("loader", 4, 1);
  m.add_pipeline("alu", 1, 1);
  m.add_pipeline("multiplier", 6, 2);
  m.add_pipeline("divider", 12, 12);
  m.map_op(Opcode::Load, "loader");
  m.map_op(Opcode::Add, "alu");
  m.map_op(Opcode::Sub, "alu");
  m.map_op(Opcode::Neg, "alu");
  m.map_op(Opcode::Mov, "alu");
  m.map_op(Opcode::Mul, "multiplier");
  m.map_op(Opcode::Div, "divider");
  m.validate();
  return m;
}

Machine Machine::single_issue_deep() {
  Machine m("single-issue-deep");
  m.add_pipeline("unit", 8, 1);
  for (Opcode op : {Opcode::Load, Opcode::Store, Opcode::Mov, Opcode::Neg,
                    Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Div}) {
    m.map_op(op, "unit");
  }
  m.validate();
  return m;
}

Machine Machine::unpipelined_units() {
  Machine m("unpipelined-units");
  m.add_pipeline("loader", 3, 3);
  m.add_pipeline("adder", 2, 2);
  m.add_pipeline("multiplier", 5, 5);
  m.map_op(Opcode::Load, "loader");
  m.map_op(Opcode::Add, "adder");
  m.map_op(Opcode::Sub, "adder");
  m.map_op(Opcode::Neg, "adder");
  m.map_op(Opcode::Mul, "multiplier");
  m.map_op(Opcode::Div, "multiplier");
  m.validate();
  return m;
}

Machine Machine::asymmetric_alus() {
  Machine m("asymmetric-alus");
  m.add_pipeline("loader", 3, 1);
  m.add_pipeline("fast-alu", 1, 1);
  m.add_pipeline("slow-alu", 4, 1);
  m.add_pipeline("multiplier", 5, 2);
  m.map_op(Opcode::Load, "loader");
  for (Opcode op : {Opcode::Add, Opcode::Sub, Opcode::Neg}) {
    m.map_op(op, "fast-alu");
    m.map_op(op, "slow-alu");
  }
  m.map_op(Opcode::Mul, "multiplier");
  m.map_op(Opcode::Div, "multiplier");
  m.validate();
  return m;
}

const std::vector<std::string>& Machine::preset_names() {
  static const std::vector<std::string> kNames = {
      "paper-simulation", "paper-example", "risc-classic",
      "single-issue-deep", "unpipelined-units", "asymmetric-alus"};
  return kNames;
}

Machine Machine::preset(const std::string& name) {
  if (name == "paper-simulation") return paper_simulation();
  if (name == "paper-example") return paper_example();
  if (name == "risc-classic") return risc_classic();
  if (name == "single-issue-deep") return single_issue_deep();
  if (name == "unpipelined-units") return unpipelined_units();
  if (name == "asymmetric-alus") return asymmetric_alus();
  throw Error("unknown machine preset: " + name);
}

}  // namespace pipesched
