// The scheduler entry point and the definitions every policy shares.
//
// Every scheduling policy in src/sched/ — original order, list, greedy,
// exhaustive, the Section 5.3 window splitter, and the two optimal
// backends (branch-and-bound and CP/DP) — is reached through one function:
//
//   ScheduleResult run_scheduler(kind, machine, dag, config, initial)
//
// which returns the schedule plus a fully-defaulted SearchStats ledger, so
// drivers (compiler, corpus runner, psc, benches) treat every policy
// uniformly and never read half-filled backend-specific fields.
//
// The two *optimal* backends are independent implementations of the same
// specification (minimum-NOP schedule under the Section 4.2.2 timing
// rules). Both claim optimality whenever stats.completed is true, so any
// disagreement between them on best_nops is a soundness bug in one of the
// two — the cross-solver differential suite (tests/test_cp_differential)
// leans on exactly this property.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sched/schedule.hpp"
#include "sched/timing.hpp"
#include "util/check.hpp"
#include "util/profiler.hpp"

namespace pipesched {

enum class SchedulerKind {
  Original,    ///< keep front-end order (NOPs inserted, no reordering)
  List,        ///< machine-independent list heuristic (Section 3.2)
  Greedy,      ///< Gross-style machine-aware heuristic baseline
  Optimal,     ///< optimal search (backend selected by SearchConfig)
  Exhaustive,  ///< all legal orders (ground truth; small blocks only)
  Split,       ///< Section 5.3 window splitter (see split_scheduler.hpp)
};

const char* scheduler_kind_name(SchedulerKind kind);

/// Which optimal-search implementation SchedulerKind::Optimal runs.
enum class OptimalBackend {
  Bnb,  ///< branch-and-bound over schedule prefixes (Section 4.2.3)
  Cp,   ///< CP/DP over (cycle, issue-slot) assignments
};

const char* optimal_backend_name(OptimalBackend backend);

/// Parse "bnb" | "cp"; returns false on unknown names.
bool parse_optimal_backend(const std::string& name, OptimalBackend* out);

struct SearchConfig {
  /// Maximum candidate placements (Lambda limit); 0 = search to exhaustion.
  std::uint64_t curtail_lambda = 1000;

  /// Wall-clock budget in seconds (0 = none). Lambda bounds *machine-
  /// relative* work; this bounds real time, which is what batch compile
  /// farms actually budget. Expiry curtails exactly like lambda — the
  /// incumbent is kept, completed=false — and SearchStats::curtail_reason
  /// records which budget fired. The clock (steady_clock) is sampled every
  /// ~1024 node expansions, so the hot loop stays branch-cheap and the
  /// effective deadline overshoots by at most one check interval.
  double deadline_seconds = 0;

  /// Optimal-search implementation (see OptimalBackend). Both backends
  /// are exact.
  OptimalBackend backend = OptimalBackend::Bnb;

  bool alpha_beta = true;             ///< rule [6]
  bool equivalence_prune = true;      ///< rule [5c], paper form
  bool strong_equivalence = false;    ///< automorphism classes (extension)
  bool lower_bound_prune = false;     ///< critical-path bound (extension)
  bool seed_with_list_schedule = true;  ///< step [1] seed; else original order

  /// State-dominance (transposition) cache: prune branches that reach an
  /// already-visited scheduler state at equal-or-worse partial cost.
  /// Cost-preserving (never prunes all optima) and compatible with every
  /// other rule, including the register-pressure ceiling — live counts
  /// are a function of the placed *set*, which is part of the state key.
  /// kSearchMemoBytes bounds its memory.
  bool dominance_cache = true;

  /// Register-pressure ceiling (0 = unconstrained). When set, the search
  /// only explores schedules whose simultaneously-live value count never
  /// exceeds this, implementing Section 3.1's discipline the other way
  /// round: instead of inserting spill code after the fact, the scheduler
  /// is barred from creating schedules the register file cannot hold, so
  /// allocation afterwards is guaranteed spill-free. The result is the
  /// optimal schedule *among the feasible ones*; stats.feasible reports
  /// whether any complete feasible schedule was found.
  int max_live_registers = 0;

  /// Instructions per window under SchedulerKind::Split (the paper's
  /// "say, twenty instructions or less each").
  int split_window = 20;
};

/// Memory budget, per search, for the state memo of either exact backend:
/// B&B's dominance cache (24-byte entries — key, verification word,
/// cost, depth; the table starts small and grows on demand up to this
/// bound) and CP's failed-state memo. 1.5 MiB holds 65,536 cache entries.
inline constexpr std::size_t kSearchMemoBytes = std::size_t{3} << 19;

/// What every policy returns: the schedule plus a fully-populated stats
/// ledger (backends default the fields they do not track — see the
/// SearchStats field docs for which counters are backend-shaped).
struct ScheduleResult {
  Schedule schedule;
  SearchStats stats;
};

/// Schedule one block with the policy `kind`; SchedulerKind::Optimal
/// runs the backend config.backend selects. `initial` carries residual
/// pipeline occupancy at block entry (paper footnote 1). The heuristic
/// policies report their one schedule as both initial and best, and prove
/// nothing: completed is false with curtail_reason None. Emits a trace
/// span named after the kind.
ScheduleResult run_scheduler(SchedulerKind kind, const Machine& machine,
                             const DepGraph& dag,
                             const SearchConfig& config = {},
                             const PipelineState& initial = {});

/// Run the optimal backend selected by config.backend on one block —
/// for drivers that only ever run the optimal policy (corpus runner,
/// register-limited compilation). Unlike run_scheduler it emits no span.
ScheduleResult run_optimal_backend(const Machine& machine, const DepGraph& dag,
                                   const SearchConfig& config = {},
                                   const PipelineState& initial = {});

// ---- Shared search internals (used by the backends; exposed here so the
// ---- two independent solvers provably agree on these definitions) -------

/// Partition tuples into equivalence classes for prune [5c].
/// Paper rule: every null instruction — sigma-empty, rho-empty, AND
/// dependent-free — shares one class (such instructions are fully
/// timing-transparent, so their relative order is immaterial; any weaker
/// condition breaks the position-swap argument in this timing model). Strong rule (extension): additionally, instructions with
/// identical (pipeline set, predecessor set, immediate successor set) are
/// DAG automorphisms of one another and share a class — this *subsumes*
/// the paper rule's class rather than replacing it. The paper rule is
/// cost-sound but NOT pressure-sound, so it is disabled when
/// `pressure_constrained`. Strong classes are cost-sound as-is; under
/// `pressure_constrained` they are refined by operand-ref multiset and
/// result-ness so classmates are also liveness-interchangeable, keeping
/// the skip sound under a register ceiling.
std::vector<int> equivalence_classes(const Machine& machine,
                                     const DepGraph& dag, bool strong,
                                     bool pressure_constrained);

/// Step [1]'s seed order: the list schedule's order, or the original
/// tuple order when config.seed_with_list_schedule is off.
std::vector<TupleIndex> seed_order(const DepGraph& dag,
                                   const SearchConfig& config);

/// The allocator's live-value rule, kept incrementally along a placement
/// order: an instruction's result is live alongside its operands, a value
/// dies at its last read, and a result that nothing reads dies at once.
/// blocks() asks whether placing a tuple next would exceed the register
/// ceiling; push() and pop() place and unplace it, in stack order. With a
/// ceiling of 0 (unconstrained) every call does nothing and nothing
/// blocks. regalloc's compute_live_ranges()/max_live() state the same
/// rule independently, as the check the tests compare against.
///
/// Only unblocked tuples are pushed, so the live count never passes the
/// ceiling, and a tuple is blocked exactly when the count sits at the
/// ceiling and the tuple defines a value: at_ceiling() && defines(t).
/// The B&B search filters a whole node's candidates on that one test.
class LiveValues {
 public:
  /// Reads each tuple once, through the block's checked accessor, into a
  /// per-tuple table; the calls below read only that table.
  LiveValues(const DepGraph& dag, int ceiling) : ceiling_(ceiling) {
    if (ceiling_ <= 0) return;
    values_.resize(dag.size());
    for (std::size_t i = 0; i < dag.size(); ++i) {
      const Tuple& t = dag.block().tuple(static_cast<TupleIndex>(i));
      Value& v = values_[i];
      v.defines = opcode_has_result(t.op);
      v.reads[0] = t.a.is_ref() ? t.a.ref : kNoRead;
      v.reads[1] = t.b.is_ref() ? t.b.ref : kNoRead;
      for (TupleIndex r : v.reads) {
        if (r != kNoRead) ++values_[static_cast<std::size_t>(r)].uses;
      }
    }
    reset();
  }

  /// Is there a ceiling to keep?
  bool constrained() const { return ceiling_ > 0; }

  /// Does `t` define a value? (Constrained only.)
  bool defines(TupleIndex t) const { return value(t).defines; }

  /// Values live after the pushes so far.
  int live() const { return live_; }

  /// Is the live count at the ceiling, so that every tuple that defines a
  /// value is blocked and no other is?
  bool at_ceiling() const { return ceiling_ > 0 && live_ == ceiling_; }

  /// Would placing `t` now hold more values live than the ceiling?
  bool blocks(TupleIndex t) const {
    return ceiling_ > 0 && live_ + (value(t).defines ? 1 : 0) > ceiling_;
  }

  void push(TupleIndex t) {
    if (ceiling_ <= 0) return;
    const Value& v = value(t);
    if (v.defines) ++live_;
    for (TupleIndex r : v.reads) {
      if (r != kNoRead && --values_[static_cast<std::size_t>(r)].unread == 0) {
        --live_;
      }
    }
    if (v.defines && v.uses == 0) --live_;
    PS_ASSERT(live_ <= ceiling_);
  }

  /// Undo the push of `t`, the most recent one not yet undone: push()'s
  /// steps in reverse.
  void pop(TupleIndex t) {
    if (ceiling_ <= 0) return;
    const Value& v = value(t);
    if (v.defines && v.uses == 0) ++live_;
    for (TupleIndex r : v.reads) {
      if (r != kNoRead && values_[static_cast<std::size_t>(r)].unread++ == 0) {
        ++live_;
      }
    }
    if (v.defines) --live_;
  }

  /// Forget every push: back to the empty placement.
  void reset() {
    for (Value& v : values_) v.unread = v.uses;
    live_ = 0;
  }

 private:
  static constexpr TupleIndex kNoRead = -1;

  struct Value {
    TupleIndex reads[2] = {kNoRead, kNoRead};  ///< operand refs, if any
    int uses = 0;    ///< operand slots reading this tuple's value
    int unread = 0;  ///< of those, reads not yet placed
    bool defines = false;
  };

  const Value& value(TupleIndex t) const {
    return values_[static_cast<std::size_t>(t)];
  }

  const int ceiling_;
  std::vector<Value> values_;  ///< per tuple; empty when unconstrained
  int live_ = 0;
};

/// True when config sets a register ceiling that `order` breaks: at some
/// point it holds more values live (LiveValues' rule) than
/// config.max_live_registers. Such a seed needs spill code, so it cannot
/// serve as the incumbent.
bool breaks_register_ceiling(const DepGraph& dag,
                             const std::vector<TupleIndex>& order,
                             const SearchConfig& config);

/// The budget both exact backends share: the paper's curtail point lambda
/// (a cap on omega calls), the wall-clock deadline, the 1,024-expansion
/// tick that samples the clock and sends the heartbeat, and which budget
/// fired. Constructing it registers the search's flight recorder under
/// `label` and arms the deadline, so a backend constructs it where its
/// search starts.
class SearchBudget {
 public:
  SearchBudget(const SearchConfig& config, const char* label);

  /// Count one node expansion. True on every 1,024th, when the caller
  /// runs tick() with its current state. Keeping only this branch in the
  /// hot loop keeps the clock read and the heartbeat out of it.
  bool count_node(SearchStats& stats) const {
    return (++stats.nodes_expanded & 1023u) == 0;
  }

  /// Has a budget run out? If so, mark `stats` curtailed and record why.
  /// Lambda counts the omega calls past `omega_base`, so a search that
  /// spends one lambda per part (the window splitter) passes the count at
  /// the part's start. The deadline outranks lambda: once the clock
  /// expired, lambda no longer describes why the search stopped.
  bool curtail(SearchStats& stats, std::uint64_t omega_base = 0) const {
    if (!deadline_expired_ &&
        (lambda_ == 0 || stats.omega_calls - omega_base < lambda_)) {
      return false;
    }
    stats.completed = false;
    stats.curtail_reason = deadline_expired_ ? CurtailReason::Deadline
                                             : CurtailReason::Lambda;
    return true;
  }

  /// The tick's cold work: sample the clock against the deadline, then
  /// send one heartbeat (see SearchMonitor::heartbeat; `incumbent_nops`
  /// is -1 while the search has no schedule within its constraints).
  void tick(const SearchStats& stats, int incumbent_nops, std::size_t depth,
            std::uint64_t cache_probes, std::uint64_t cache_hits);

  /// Does anything watch heartbeats (tracing, profiling or an armed
  /// watchdog)? Gates the end-of-search tick, so that every observed
  /// search sends at least one heartbeat, even one that ends inside the
  /// first tick, while a sub-tick search in a fully dark run skips the
  /// clock read and the ring push.
  static bool observed();

 private:
  SearchMonitor monitor_;
  const std::uint64_t lambda_;
  const bool has_deadline_;
  bool deadline_expired_ = false;
  std::chrono::steady_clock::time_point deadline_at_{};
};

/// Latency-weighted height below each tuple: a chain from t's issue to the
/// final instruction's issue needs at least lh(t) further cycles, because
/// each dependence edge forces max(1, latency(producer)) cycles between
/// issues. Admissible (uses the minimum latency over unit alternatives).
std::vector<int> latency_heights(const Machine& machine, const DepGraph& dag);

/// Publish one finished search's SearchStats into the metrics registry.
/// The hot loops keep mutating plain local counters (zero added cost per
/// node); the registry receives the totals in one batch here, so registry
/// sums are exactly the sums of the per-search stats — a property the
/// test suite asserts. Each kSearchCounters row names its series. Called
/// once per run by both optimal backends, the exhaustive scheduler and
/// the window splitter.
void flush_search_metrics(const SearchStats& stats);

}  // namespace pipesched
