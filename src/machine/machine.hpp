// Target pipeline architecture model (paper Section 4.1, Tables 2-5).
//
// A Machine is a set of hardware pipelines — each with its own *latency*
// (clock ticks from enqueue until the result is available; governs
// dependence delays) and *enqueue time* (minimum ticks between two
// operations entering the same pipeline; governs conflict delays) — plus a
// mapping from operation types to the set of pipelines able to execute
// them. Non-pipelined functional units are modeled by enqueue == latency
// (Section 2.1); operations with no mapped pipeline (sigma = empty, e.g.
// Const and Store on the paper's machine) never conflict and have latency 0.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "ir/opcode.hpp"
#include "util/check.hpp"

namespace pipesched {

/// Internal pipeline identifier: index into Machine's pipeline table.
using PipelineId = int;

inline constexpr PipelineId kNoPipeline = -1;

/// Largest latency or enqueue time a pipeline may have. Every preset and
/// machine file uses 12 or less; the bound keeps issue-cycle sums of long
/// blocks far from int overflow and NOP padding to a sane size.
inline constexpr int kMaxPipelineCycles = 1024;

/// Most pipelines a machine may have. Every preset and machine file has 5
/// or less; the optimal search packs a unit id into a 16-bit field of its
/// state key, so no bound past 65,536 would be safe.
inline constexpr std::size_t kMaxPipelines = 1024;

struct PipelineDesc {
  std::string function;  ///< e.g. "loader", "adder", "multiplier"
  int latency = 1;       ///< 1..kMaxPipelineCycles
  int enqueue = 1;       ///< 1..kMaxPipelineCycles
};

class Machine {
 public:
  explicit Machine(std::string name);

  const std::string& name() const { return name_; }

  /// Register a pipeline; returns its PipelineId (display ids are id+1,
  /// matching the paper's 1-based tables). Throws unless latency and
  /// enqueue lie in 1..kMaxPipelineCycles, or when the machine already
  /// has kMaxPipelines pipelines.
  PipelineId add_pipeline(std::string function, int latency, int enqueue);

  /// Map an opcode to every pipeline whose function name matches.
  /// Throws if no pipeline has that function.
  void map_op(Opcode op, const std::string& function);

  /// Map an opcode to explicit pipeline ids (appends, de-duplicated).
  void map_op(Opcode op, const std::vector<PipelineId>& pipelines);

  std::size_t pipeline_count() const { return pipelines_.size(); }
  const PipelineDesc& pipeline(PipelineId id) const {
    PS_ASSERT(id >= 0 && static_cast<std::size_t>(id) < pipelines_.size());
    return pipelines_[static_cast<std::size_t>(id)];
  }

  /// Pipelines able to execute `op`; empty means sigma = empty set.
  const std::vector<PipelineId>& pipelines_for(Opcode op) const {
    return op_map_[static_cast<std::size_t>(op)];
  }

  /// True when `op` has at least one mapped pipeline.
  bool uses_pipeline(Opcode op) const { return !pipelines_for(op).empty(); }

  /// `op`'s alternative units grouped by identical (latency, enqueue)
  /// signature. Units within a group are interchangeable (earliest-free
  /// choice is optimal by exchange); units in different groups are a
  /// genuine scheduling decision the optimal search branches over.
  /// Homogeneous ops have exactly one group. Empty for sigma-empty ops.
  const std::vector<std::vector<PipelineId>>& unit_groups(Opcode op) const {
    return unit_groups_[static_cast<std::size_t>(op)];
  }

  /// True when some opcode maps to units with differing parameters (the
  /// general model footnote 3 excludes from the paper's own algorithm).
  bool has_heterogeneous_alternatives() const;

  /// MINIMUM latency over `op`'s alternatives; 0 when sigma = empty.
  /// (An admissible bound: heterogeneous ops may execute on a slower
  /// unit; per-placement timing always uses the chosen unit's latency.)
  int latency_for(Opcode op) const;

  /// Minimum enqueue time over `op`'s alternatives; 0 when sigma = empty.
  int enqueue_for(Opcode op) const;

  /// Largest latency of any pipeline (bound used by search heuristics).
  int max_latency() const;

  /// Check invariants: at least one pipeline, positive latencies and
  /// enqueue times. Heterogeneous alternatives are allowed — the optimal
  /// search branches over their signature groups; the greedy/list
  /// schedulers fall back to an earliest-free heuristic choice.
  /// Throws Error on violation.
  void validate() const;

  /// Render the two description tables in the paper's format.
  std::string to_string() const;

  // --- presets (see DESIGN.md Section 5) -----------------------------------

  /// Tables 4-5: loader(2,1), adder(4,3), multiplier(4,2); one unit each.
  static Machine paper_simulation();

  /// Tables 2-3: two loaders, two adders, one multiplier.
  static Machine paper_example();

  /// MIPS-R3000-flavoured: loader(4,1), alu(1,1), multiplier(6,2),
  /// divider(12,12).
  static Machine risc_classic();

  /// One deep pipeline shared by every operation: latency 8, enqueue 1.
  static Machine single_issue_deep();

  /// Parallel non-pipelined units: enqueue == latency (Section 2.1).
  static Machine unpipelined_units();

  /// Heterogeneous alternatives: a fast 1-cycle ALU and a slow 4-cycle ALU
  /// both execute Add/Sub/Neg — the unit choice is a real scheduling
  /// decision (the general model of Section 4.1 that footnote 3 excludes
  /// from the paper's own algorithm).
  static Machine asymmetric_alus();

  /// All presets by name (used by tests and the machine-explorer example).
  static const std::vector<std::string>& preset_names();
  static Machine preset(const std::string& name);

 private:
  /// Recompute every opcode's signature groups. Called from the mutators
  /// so `unit_groups()` is a pure read — a Machine is shared by const
  /// reference across scheduler worker threads, so the groups may never
  /// be materialized lazily inside the const accessor.
  void rebuild_unit_groups();

  std::string name_;
  std::vector<PipelineDesc> pipelines_;
  std::vector<std::vector<PipelineId>> op_map_;  // indexed by Opcode value
  // Signature groups per opcode, rebuilt eagerly on mutation.
  std::array<std::vector<std::vector<PipelineId>>, kOpcodeCount>
      unit_groups_;
};

}  // namespace pipesched
