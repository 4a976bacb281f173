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

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "machine/machine.hpp"
#include "sched/optimal_scheduler.hpp"
#include "synth/corpus.hpp"
#include "util/progress.hpp"

namespace pipesched {

class JsonValue;

/// Per-block result of one corpus run.
struct RunRecord {
  int block_size = 0;  ///< instructions after optimization
  /// The search's stats; stats.best_nops is exported as "final_nops".
  SearchStats stats;

  /// Non-empty when this block's run threw: the exception message. The
  /// stats above are whatever was recorded before the failure.
  std::string error;
  /// Path of the `--tuples` replay dump written for a failed block
  /// (empty when no reproducer was requested or the dump itself failed).
  std::string reproducer;
};

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

/// The paper's experiment (Table 7 and Figures 1, 4-7): the Tables 4-5
/// machine; branch-and-bound from the list seed of step [1] under the
/// enumerated prunes (readiness [5b], equivalence [5c] in its paper form,
/// alpha-beta [6]) plus the critical-path bound; curtail point
/// lambda = 50,000, no deadline, no dominance cache. Every search field is
/// set here, so changing a SearchConfig default leaves this experiment as
/// it is. An extension is measured as a row that starts from it. Reads no
/// environment; `threads` keeps the runner's default.
CorpusRunOptions paper_protocol();

/// Generate each parameter set's block and schedule it with the optimal
/// backend selected by `options.search.backend` (branch-and-bound by
/// default). Results are indexed like `params`
/// (deterministic regardless of thread interleaving, except the
/// wall-clock `seconds` field). Per-block exceptions are captured into
/// RunRecord::error; the batch always returns params.size() records.
std::vector<RunRecord> run_corpus(const std::vector<GeneratorParams>& params,
                                  const CorpusRunOptions& options);

/// Aggregate statistics in the shape of the paper's Table 7: one column
/// for optimal runs, one for truncated runs (SearchOutcome::Curtailed and
/// NoSchedule), one for totals. A proven-infeasible block counts only in
/// the totals column (its `infeasible` count). Errored blocks are counted
/// (per column `errors`) but excluded from every other count and average.
/// Blocks that end without a schedule are excluded from the final-NOPs
/// average only.
struct CorpusSummary {
  struct Column {
    std::size_t runs = 0;
    double percent = 0;
    double avg_instructions = 0;
    double avg_initial_nops = 0;
    double avg_final_nops = 0;
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
    /// Exact totals over the non-error runs: how many ended in each
    /// SearchOutcome (indexed by it), the initial and final NOPs of those
    /// that kept a schedule, and each kSearchCounters row.
    std::array<std::size_t, 4> outcomes{};
    std::uint64_t scheduled_initial_nops = 0;
    std::uint64_t scheduled_final_nops = 0;
    std::array<std::uint64_t, kSearchCounterCount> counters{};

    /// Average of one kSearchCounters member over the non-error runs.
    double average(std::uint64_t SearchStats::*counter) const;
  };
  Column completed;
  Column truncated;
  Column total;
};

CorpusSummary summarize_corpus(const std::vector<RunRecord>& records);

/// Render the Table 7 layout (plus the error/curtail/prune-rule rows).
/// The text depends on `summary` alone.
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

/// One exact integer total of a roll-up's "metrics" section.
struct CorpusMetric {
  std::string key;
  std::uint64_t value = 0;
  bool exact = false;  ///< bench_diff fails on a change; else it reports it
};

/// The "metrics" section, read off the summary's totals column: block,
/// error and per-outcome counts ("<search_outcome_name>_blocks"), the
/// curtail-reason counts, the NOPs of the blocks that kept a schedule,
/// and "total_<key>" for every kSearchCounters row.
std::vector<CorpusMetric> corpus_metrics(const CorpusSummary::Column& total);

/// Single-JSON-object roll-up of a corpus run (run metadata, the
/// corpus_metrics() section, and the three summary columns) so successive
/// PRs can track the perf trajectory. The exact totals are what
/// `bench_diff` compares bit-for-bit: unlike the summary averages they
/// carry no floating-point formatting noise.
void write_corpus_bench_json(const CorpusSummary& summary,
                             const CorpusBenchMeta& meta,
                             const std::string& path);

/// Read one write_corpus_jsonl() line back into a record. An absent or
/// mistyped field keeps its default, except that a line without
/// "completed" counts as curtailed.
RunRecord parse_run_record(const JsonValue& line);

}  // namespace pipesched
