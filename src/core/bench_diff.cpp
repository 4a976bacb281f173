#include "core/bench_diff.hpp"

#include <cmath>
#include <cstdint>
#include <sstream>

#include "core/corpus_runner.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace pipesched {

namespace {

using Status = BenchDiffLine::Status;

std::string render_number(double v) {
  std::ostringstream oss;
  // Exact fields are integers; render them without a trailing ".0" so
  // the table reads like the JSON does.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    oss << static_cast<long long>(v);
  } else {
    oss << v;
  }
  return oss.str();
}

class Differ {
 public:
  Differ(const JsonValue& baseline, const JsonValue& candidate,
         const BenchDiffOptions& options)
      : baseline_(baseline), candidate_(candidate), options_(options) {}

  BenchDiffResult run() {
    // Config identity: a diff across different machines or budgets is
    // apples to oranges, so these fail like correctness fields.
    exact_string({"machine"});
    exact_string({"backend"});
    exact({"curtail_lambda"});
    exact({"deadline_seconds"});

    // The roll-up's integer totals: each is exact (correctness-critical)
    // or info (search shape: reported, never a failure), as the roll-up
    // itself declares.
    for (const CorpusMetric& metric :
         corpus_metrics(CorpusSummary::Column{})) {
      if (metric.exact) {
        exact({"metrics", metric.key});
      } else {
        info({"metrics", metric.key});
      }
    }

    // Timing: noise-aware.
    timing({"total_wall_seconds"});
    for (const char* column : {"completed", "truncated", "total"}) {
      for (const char* field :
           {"avg_seconds", "p50_seconds", "p90_seconds", "p99_seconds"}) {
        timing({column, field});
      }
    }
    return std::move(result_);
  }

 private:
  static std::string joined(const std::vector<std::string>& path) {
    std::string out;
    for (const std::string& p : path) {
      if (!out.empty()) out += '.';
      out += p;
    }
    return out;
  }

  void push(Status status, const std::vector<std::string>& path,
            std::string base, std::string cand, std::string delta) {
    if (status == Status::Regressed || status == Status::Mismatch ||
        status == Status::Missing) {
      ++result_.regressions;
    }
    result_.lines.push_back({status, joined(path), std::move(base),
                             std::move(cand), std::move(delta)});
  }

  /// Both values as numbers, or report Missing (exact/timing) and return
  /// false. `missing_fails` is false for info fields. A field absent from
  /// BOTH sides is skipped entirely: the two artifacts agree on their
  /// schema (e.g. jsonl aggregations carry no machine config), so only
  /// one-sided absence is drift worth failing on.
  bool numbers(const std::vector<std::string>& path, bool missing_fails,
               double& base, double& cand) {
    const JsonValue* b = baseline_.find_path(path);
    const JsonValue* c = candidate_.find_path(path);
    if (b == nullptr && c == nullptr) return false;
    if (b == nullptr || c == nullptr || !b->is_number() || !c->is_number()) {
      const auto render = [](const JsonValue* v) {
        return v != nullptr && v->is_number() ? render_number(v->as_number())
                                              : std::string("-");
      };
      push(missing_fails ? Status::Missing : Status::Info, path, render(b),
           render(c), "");
      return false;
    }
    base = b->as_number();
    cand = c->as_number();
    return true;
  }

  void exact(const std::vector<std::string>& path) {
    // Integer-syntax values compare as exact int64: counters above 2^53
    // (omega totals on long uptimes) would otherwise alias under double
    // rounding and pass — or fail — on the wrong number.
    const JsonValue* b = baseline_.find_path(path);
    const JsonValue* c = candidate_.find_path(path);
    if (b != nullptr && c != nullptr && b->is_integer() && c->is_integer()) {
      const std::int64_t bi = b->as_int64();
      const std::int64_t ci = c->as_int64();
      push(bi == ci ? Status::Ok : Status::Mismatch, path,
           std::to_string(bi), std::to_string(ci),
           bi == ci ? "" : std::to_string(ci - bi));
      return;
    }
    double base = 0, cand = 0;
    if (!numbers(path, /*missing_fails=*/true, base, cand)) return;
    push(base == cand ? Status::Ok : Status::Mismatch, path,
         render_number(base), render_number(cand),
         base == cand ? "" : render_number(cand - base));
  }

  void exact_string(const std::vector<std::string>& path) {
    const JsonValue* b = baseline_.find_path(path);
    const JsonValue* c = candidate_.find_path(path);
    const auto render = [](const JsonValue* v) {
      return v != nullptr && v->is_string() ? v->as_string()
                                            : std::string("-");
    };
    if (b == nullptr && c == nullptr) return;
    if (b == nullptr || c == nullptr || !b->is_string() || !c->is_string()) {
      push(Status::Missing, path, render(b), render(c), "");
      return;
    }
    push(b->as_string() == c->as_string() ? Status::Ok : Status::Mismatch,
         path, b->as_string(), c->as_string(), "");
  }

  void info(const std::vector<std::string>& path) {
    double base = 0, cand = 0;
    if (!numbers(path, /*missing_fails=*/false, base, cand)) return;
    std::string delta;
    if (base != cand) {
      std::ostringstream oss;
      oss << (cand > base ? "+" : "") << render_number(cand - base);
      if (base != 0) {
        oss << " (" << (cand > base ? "+" : "")
            << compact_double(100.0 * (cand - base) / base, 3) << "%)";
      }
      delta = oss.str();
    }
    push(Status::Info, path, render_number(base), render_number(cand),
         std::move(delta));
  }

  void timing(const std::vector<std::string>& path) {
    double base = 0, cand = 0;
    if (!numbers(path, /*missing_fails=*/true, base, cand)) return;
    const double diff = cand - base;
    const bool beyond_rel = cand > base * (1.0 + options_.rel_tol);
    const bool beyond_abs = diff > options_.abs_floor_seconds;
    const Status status =
        beyond_rel && beyond_abs ? Status::Regressed : Status::Ok;
    std::ostringstream delta;
    delta << (diff >= 0 ? "+" : "") << compact_double(diff * 1e6, 4) << "us";
    if (base > 0) {
      delta << " (" << (diff >= 0 ? "+" : "")
            << compact_double(100.0 * diff / base, 3) << "%)";
    }
    push(status, path, compact_double(base * 1e6, 4) + "us",
         compact_double(cand * 1e6, 4) + "us", delta.str());
  }

  const JsonValue& baseline_;
  const JsonValue& candidate_;
  const BenchDiffOptions options_;
  BenchDiffResult result_;
};

}  // namespace

BenchDiffResult diff_bench_rollups(const JsonValue& baseline,
                                   const JsonValue& candidate,
                                   const BenchDiffOptions& options) {
  return Differ(baseline, candidate, options).run();
}

JsonValue rollup_from_records(const std::vector<JsonValue>& lines) {
  std::vector<RunRecord> records;
  records.reserve(lines.size());
  for (const JsonValue& line : lines) {
    records.push_back(parse_run_record(line));
  }

  // Counters aggregate as exact integers (make_integer) so the diff's
  // exact-compare path never sees a rounded value.
  const CorpusSummary::Column total = summarize_corpus(records).total;
  std::vector<std::pair<std::string, JsonValue>> metrics;
  for (const CorpusMetric& m : corpus_metrics(total)) {
    metrics.emplace_back(
        m.key, JsonValue::make_integer(static_cast<std::int64_t>(m.value)));
  }
  std::vector<std::pair<std::string, JsonValue>> total_col = {
      {"avg_seconds", JsonValue::make_number(total.avg_seconds)},
      {"p50_seconds", JsonValue::make_number(total.p50_seconds)},
      {"p90_seconds", JsonValue::make_number(total.p90_seconds)},
      {"p99_seconds", JsonValue::make_number(total.p99_seconds)},
  };

  // The records carry no whole-run wall time; the sum of the per-block
  // seconds stands in for it.
  const auto timed_blocks = static_cast<double>(total.runs - total.errors);
  std::vector<std::pair<std::string, JsonValue>> root;
  root.emplace_back("total_wall_seconds",
                    JsonValue::make_number(total.avg_seconds * timed_blocks));
  root.emplace_back("metrics", JsonValue::make_object(std::move(metrics)));
  root.emplace_back("total", JsonValue::make_object(std::move(total_col)));
  return JsonValue::make_object(std::move(root));
}

BenchDiffResult diff_bench_files(const std::string& baseline_path,
                                 const std::string& candidate_path,
                                 const BenchDiffOptions& options) {
  auto load = [](const std::string& path) {
    if (path.size() >= 6 &&
        path.compare(path.size() - 6, 6, ".jsonl") == 0) {
      return rollup_from_records(parse_jsonl_file(path));
    }
    return parse_json_file(path);
  };
  const JsonValue baseline = load(baseline_path);
  const JsonValue candidate = load(candidate_path);
  return diff_bench_rollups(baseline, candidate, options);
}

std::string render_bench_diff(const BenchDiffResult& result) {
  auto status_name = [](Status s) -> const char* {
    switch (s) {
      case Status::Ok: return "ok";
      case Status::Info: return "info";
      case Status::Regressed: return "REGRESSED";
      case Status::Mismatch: return "MISMATCH";
      case Status::Missing: return "MISSING";
    }
    return "?";
  };
  std::ostringstream oss;
  oss << pad_right("status", 11) << pad_right("field", 40)
      << pad_left("baseline", 16) << "  " << pad_left("candidate", 16)
      << "  delta\n";
  for (const BenchDiffLine& line : result.lines) {
    oss << pad_right(status_name(line.status), 11)
        << pad_right(line.field, 40) << pad_left(line.baseline, 16) << "  "
        << pad_left(line.candidate, 16) << "  " << line.delta << "\n";
  }
  oss << (result.ok()
              ? "bench_diff: OK"
              : "bench_diff: FAIL (" + std::to_string(result.regressions) +
                    " failing field(s))")
      << "\n";
  return oss.str();
}

}  // namespace pipesched
