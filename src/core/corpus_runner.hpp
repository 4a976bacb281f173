// Corpus experiment harness: run a scheduling policy over thousands of
// generated blocks (in parallel — blocks are independent) and aggregate
// the statistics the paper's Table 7 and Figures 1/4/5/6/7 report.
//
// Corpus runs are crash-proof: a per-block failure (generator bug,
// scheduler invariant expressed as pipesched::Error, injected test fault)
// is captured into RunRecord::error instead of aborting the batch, and
// the offending block is dumped in `psc --tuples` replay form so the
// failure can be reproduced in isolation.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "machine/machine.hpp"
#include "sched/optimal_scheduler.hpp"
#include "synth/corpus.hpp"
#include "util/progress.hpp"

namespace pipesched {

/// Per-block outcome of one corpus run.
struct RunRecord {
  int block_size = 0;       ///< instructions after optimization
  int initial_nops = 0;     ///< NOPs of the list (seed) schedule
  int final_nops = 0;       ///< NOPs of the best schedule (-1: none fits)
  std::uint64_t omega_calls = 0;
  std::uint64_t schedules_examined = 0;
  std::uint64_t nodes_expanded = 0;   ///< search-tree descents
  std::uint64_t cache_probes = 0;     ///< dominance-cache traffic
  std::uint64_t cache_hits = 0;       ///< subtrees pruned as dominated
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_superseded = 0;
  bool completed = true;    ///< condition [1] (provably optimal)
  CurtailReason curtail_reason = CurtailReason::None;
  bool feasible = true;     ///< pressure-constrained search found a schedule

  /// Branches killed per pruning rule (see SearchStats).
  std::uint64_t pruned_window = 0;
  std::uint64_t pruned_readiness = 0;
  std::uint64_t pruned_equivalence = 0;
  std::uint64_t pruned_alpha_beta = 0;
  std::uint64_t pruned_lower_bound = 0;
  std::uint64_t pruned_dominance = 0;
  std::uint64_t pruned_pressure = 0;

  double seconds = 0.0;

  /// Non-empty when this block's run threw: the exception message. The
  /// counter fields above are whatever was recorded before the failure.
  std::string error;
  /// Path of the `--tuples` replay dump written for a failed block
  /// (empty when no reproducer was requested or the dump itself failed).
  std::string reproducer;
};

/// Copy one search's counters into a per-block record (shared by the
/// corpus runner and psc's per-block export).
void fill_run_record(RunRecord& record, const SearchStats& stats);

struct CorpusRunOptions {
  Machine machine = Machine::paper_simulation();
  SearchConfig search;
  std::size_t threads = 0;  ///< 0 = hardware concurrency

  /// When non-empty, each failed block is dumped to
  /// "<reproducer_prefix><index>.tuples" in BasicBlock::to_string() form,
  /// replayable with `psc --tuples <file>`.
  std::string reproducer_prefix;

  /// Test seam: invoked with (index, generated block) before scheduling.
  /// A throwing hook exercises the per-block failure path exactly like a
  /// real scheduler fault would.
  std::function<void(std::size_t, const BasicBlock&)> fault_hook;

  /// Optional live progress: one tick per finished block (errored blocks
  /// tick with errored=true). Not owned; may be null.
  ProgressReporter* progress = nullptr;
};

/// Generate each parameter set's block and schedule it with the optimal
/// backend selected by `options.search.backend` (branch-and-bound by
/// default). Results are indexed like `params`
/// (deterministic regardless of thread interleaving, except the
/// wall-clock `seconds` field). Per-block exceptions are captured into
/// RunRecord::error; the batch always returns params.size() records.
std::vector<RunRecord> run_corpus(const std::vector<GeneratorParams>& params,
                                  const CorpusRunOptions& options);

/// Aggregate statistics in the shape of the paper's Table 7: one column
/// for completed (optimal) runs, one for truncated runs, one for totals.
/// Errored blocks are counted (per column `errors`) but excluded from the
/// completed/truncated partition and from every average. Blocks with no
/// schedule within the register ceiling are excluded from the final-NOPs
/// average only; `infeasible` counts those whose search completed, so it
/// never counts a search that was curtailed before a schedule turned up.
struct CorpusSummary {
  struct Column {
    std::size_t runs = 0;
    double percent = 0;
    double avg_instructions = 0;
    double avg_initial_nops = 0;
    double avg_final_nops = 0;
    double avg_omega_calls = 0;
    double avg_nodes_expanded = 0;
    double cache_hit_percent = 0;  ///< hits / probes over the column
    double avg_seconds = 0;
    /// Per-block wall-time distribution (seconds) over the non-error
    /// records — the tail is what deadline/λ tuning actually fights.
    double p50_seconds = 0;
    double p90_seconds = 0;
    double p99_seconds = 0;
    std::size_t errors = 0;             ///< blocks whose run threw
    std::size_t infeasible = 0;         ///< proven: none fits the ceiling
    std::size_t curtailed_lambda = 0;   ///< stopped by the curtail point
    std::size_t curtailed_deadline = 0; ///< stopped by the wall-clock budget
    double avg_pruned_window = 0;
    double avg_pruned_readiness = 0;
    double avg_pruned_equivalence = 0;
    double avg_pruned_alpha_beta = 0;
    double avg_pruned_lower_bound = 0;
    double avg_pruned_dominance = 0;
    double avg_pruned_pressure = 0;
  };
  Column completed;
  Column truncated;
  Column total;
};

CorpusSummary summarize_corpus(const std::vector<RunRecord>& records);

/// Render the Table 7 layout (plus the error/curtail/prune-rule rows).
std::string render_corpus_summary(const CorpusSummary& summary);

/// Machine-readable per-block exports; column/field order is identical
/// between the two formats. Both fail loudly on write errors.
void write_corpus_csv(const std::vector<RunRecord>& records,
                      const std::string& path);
void write_corpus_jsonl(const std::vector<RunRecord>& records,
                        const std::string& path);

/// Run metadata for the BENCH_corpus.json roll-up.
struct CorpusBenchMeta {
  std::string machine;
  std::string backend = "bnb";  ///< optimal backend the corpus ran with
  std::uint64_t curtail_lambda = 0;
  double deadline_seconds = 0;
  double total_wall_seconds = 0;  ///< whole-corpus wall time
};

/// Single-JSON-object roll-up of a corpus run (summary columns + run
/// metadata + a "metrics" section of exact integer totals computed from
/// `records`) so successive PRs can track the perf trajectory. The exact
/// totals are what `bench_diff` compares bit-for-bit: unlike the summary
/// averages they carry no floating-point formatting noise.
void write_corpus_bench_json(const CorpusSummary& summary,
                             const std::vector<RunRecord>& records,
                             const CorpusBenchMeta& meta,
                             const std::string& path);

}  // namespace pipesched
