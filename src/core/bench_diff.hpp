// Noise-aware comparison of two corpus bench artifacts — the regression
// gate behind the `bench_diff` tool and the ci.sh perf check.
//
// Two BENCH_corpus.json roll-ups (or two corpus_records.jsonl per-block
// exports, aggregated on the fly into the same shape) are compared field
// by field under a three-way policy:
//
//   * exact fields   — config identity (machine, lambda, deadline) and
//     correctness-critical totals (block and error counts, one count per
//     search outcome, total NOPs). Any difference fails: these are
//     deterministic for a fixed corpus seed, so a delta means the
//     scheduler's RESULTS changed, not its speed. A missing field also
//     fails — a schema that silently dropped a correctness field must
//     not pass the gate.
//   * timing fields  — wall-clock aggregates (avg/p50/p90/p99 per
//     summary column, whole-corpus wall time). Machines are noisy, so a
//     candidate only regresses when it exceeds BOTH the relative
//     tolerance (default +25%) AND the absolute floor (default 100us)
//     over the baseline: the floor keeps microsecond jitter on tiny
//     corpora from tripping the relative check, the relative check keeps
//     slow corpora honest. Improvements never fail.
//   * info fields    — search-shape totals (curtail reasons and one total
//     per search counter: omega calls, nodes, prunes, cache traffic).
//     Reported in the delta table for diagnosis, never a failure by
//     themselves: they legitimately move when pruning heuristics change.
// corpus_metrics() (core/corpus_runner.hpp) gives each "metrics" key its
// class.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace pipesched {

class JsonValue;

struct BenchDiffOptions {
  /// A timing field regresses only when candidate > baseline * (1 +
  /// rel_tol) AND candidate - baseline > abs_floor_seconds.
  double rel_tol = 0.25;
  double abs_floor_seconds = 1e-4;
};

/// One row of the delta table.
struct BenchDiffLine {
  enum class Status {
    Ok,         ///< within policy
    Info,       ///< informational field; never a failure
    Regressed,  ///< timing field beyond both thresholds
    Mismatch,   ///< exact field differs
    Missing,    ///< exact/timing field absent from one side
  };
  Status status = Status::Ok;
  std::string field;      ///< dotted path, e.g. "metrics.total_final_nops"
  std::string baseline;   ///< rendered value ("-" when absent)
  std::string candidate;  ///< rendered value ("-" when absent)
  std::string delta;      ///< rendered delta ("" when not applicable)
};

struct BenchDiffResult {
  std::vector<BenchDiffLine> lines;
  std::size_t regressions = 0;  ///< Regressed + Mismatch + Missing rows

  bool ok() const { return regressions == 0; }
};

/// Compare two parsed BENCH_corpus.json roll-ups.
BenchDiffResult diff_bench_rollups(const JsonValue& baseline,
                                   const JsonValue& candidate,
                                   const BenchDiffOptions& options = {});

/// Aggregate one corpus_records.jsonl per-block export into the roll-up
/// shape diff_bench_rollups() consumes, through the summarize_corpus()
/// and corpus_metrics() that BENCH_corpus.json is written from;
/// "total_wall_seconds" is the sum of the per-block seconds. Exposed so
/// tests can exercise the aggregation directly.
JsonValue rollup_from_records(const std::vector<JsonValue>& lines);

/// Load both paths and compare. ".jsonl" inputs are treated as per-block
/// record exports and aggregated first; anything else is parsed as a
/// roll-up. Throws pipesched::Error on unreadable/malformed input.
BenchDiffResult diff_bench_files(const std::string& baseline_path,
                                 const std::string& candidate_path,
                                 const BenchDiffOptions& options = {});

/// Human-readable delta table (one line per compared field).
std::string render_bench_diff(const BenchDiffResult& result);

}  // namespace pipesched
