// Tests for the noise-aware bench regression gate: the three-way
// exact/timing/info policy, jsonl aggregation, and the CLI-facing file
// loader.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/bench_diff.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace pipesched {
namespace {

/// A small, self-consistent roll-up in the BENCH_corpus.json shape.
/// Tests perturb individual fields via the json text before parsing.
std::string rollup_text(const std::string& machine, double wall_seconds,
                        std::uint64_t total_final_nops,
                        double total_p90_seconds) {
  std::ostringstream oss;
  oss << R"({
  "machine": ")"
      << machine << R"(",
  "curtail_lambda": 50000,
  "deadline_seconds": 0,
  "total_wall_seconds": )"
      << wall_seconds << R"(,
  "metrics": {
    "blocks": 100,
    "errors": 0,
    "optimal_blocks": 99,
    "infeasible_blocks": 2,
    "curtailed_lambda_blocks": 1,
    "curtailed_deadline_blocks": 0,
    "total_initial_nops": 2345,
    "total_final_nops": )"
      << total_final_nops << R"(,
    "total_omega_calls": 51234,
    "total_nodes_expanded": 9876,
    "total_schedules_examined": 432,
    "total_cache_probes": 8000,
    "total_cache_hits": 1200
  },
  "completed": {
    "avg_seconds": 0.001, "p50_seconds": 0.0008,
    "p90_seconds": 0.002, "p99_seconds": 0.004
  },
  "truncated": {
    "avg_seconds": 0.01, "p50_seconds": 0.01,
    "p90_seconds": 0.011, "p99_seconds": 0.012
  },
  "total": {
    "avg_seconds": 0.0011, "p50_seconds": 0.0008,
    "p90_seconds": )"
      << total_p90_seconds << R"(, "p99_seconds": 0.0041
  }
})";
  return oss.str();
}

JsonValue rollup(const std::string& machine = "paper", double wall = 12.5,
                 std::uint64_t final_nops = 678,
                 double total_p90 = 0.0021) {
  return parse_json(rollup_text(machine, wall, final_nops, total_p90));
}

std::size_t count_status(const BenchDiffResult& result,
                         BenchDiffLine::Status status) {
  std::size_t n = 0;
  for (const BenchDiffLine& line : result.lines) {
    if (line.status == status) ++n;
  }
  return n;
}

TEST(BenchDiff, IdenticalRollupsPass) {
  const JsonValue base = rollup();
  const BenchDiffResult result = diff_bench_rollups(base, base);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.regressions, 0u);
  EXPECT_EQ(count_status(result, BenchDiffLine::Status::Mismatch), 0u);
  EXPECT_EQ(count_status(result, BenchDiffLine::Status::Regressed), 0u);
  EXPECT_EQ(count_status(result, BenchDiffLine::Status::Missing), 0u);
  // The delta table covers config + correctness + info + timing rows.
  EXPECT_GE(result.lines.size(), 20u);
  const std::string table = render_bench_diff(result);
  EXPECT_NE(table.find("bench_diff: OK"), std::string::npos);
}

TEST(BenchDiff, CorrectnessMismatchFails) {
  const JsonValue base = rollup();
  const JsonValue cand = rollup("paper", 12.5, /*final_nops=*/679);
  const BenchDiffResult result = diff_bench_rollups(base, cand);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(count_status(result, BenchDiffLine::Status::Mismatch), 1u);
  bool saw = false;
  for (const BenchDiffLine& line : result.lines) {
    if (line.field != "metrics.total_final_nops") continue;
    saw = true;
    EXPECT_EQ(line.status, BenchDiffLine::Status::Mismatch);
    EXPECT_EQ(line.baseline, "678");
    EXPECT_EQ(line.candidate, "679");
  }
  EXPECT_TRUE(saw);
  EXPECT_NE(render_bench_diff(result).find("bench_diff: FAIL"),
            std::string::npos);
}

TEST(BenchDiff, MachineConfigMismatchFails) {
  const BenchDiffResult result =
      diff_bench_rollups(rollup("paper"), rollup("asymmetric"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(count_status(result, BenchDiffLine::Status::Mismatch), 1u);
}

TEST(BenchDiff, TimingRegressionBeyondBothThresholdsFails) {
  // +50% and +1.05ms on total.p90_seconds: beyond the default 25%
  // relative tolerance and the 100us absolute floor.
  const JsonValue base = rollup();
  const JsonValue cand = rollup("paper", 12.5, 678, /*total_p90=*/0.00315);
  const BenchDiffResult result = diff_bench_rollups(base, cand);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(count_status(result, BenchDiffLine::Status::Regressed), 1u);
  for (const BenchDiffLine& line : result.lines) {
    if (line.field == "total.p90_seconds") {
      EXPECT_EQ(line.status, BenchDiffLine::Status::Regressed);
    }
  }
}

TEST(BenchDiff, SmallAbsoluteDeltaIsNoiseNotRegression) {
  // +100% relative but only +2.1us absolute: under the 100us floor, so
  // jitter on a tiny corpus does not trip the gate.
  const JsonValue base = rollup("paper", 12.5, 678, /*total_p90=*/2.1e-6);
  const JsonValue cand = rollup("paper", 12.5, 678, /*total_p90=*/4.2e-6);
  EXPECT_TRUE(diff_bench_rollups(base, cand).ok());
}

TEST(BenchDiff, SmallRelativeDeltaIsNoiseNotRegression) {
  // +10ms absolute but only +10% relative: under the 25% tolerance.
  const JsonValue base = rollup("paper", 12.5, 678, /*total_p90=*/0.1);
  const JsonValue cand = rollup("paper", 12.5, 678, /*total_p90=*/0.11);
  EXPECT_TRUE(diff_bench_rollups(base, cand).ok());
}

TEST(BenchDiff, ImprovementsNeverFail) {
  const JsonValue base = rollup("paper", 12.5, 678, /*total_p90=*/0.1);
  const JsonValue cand = rollup("paper", 6.0, 678, /*total_p90=*/0.001);
  EXPECT_TRUE(diff_bench_rollups(base, cand).ok());
}

TEST(BenchDiff, ThresholdsAreConfigurable) {
  const JsonValue base = rollup("paper", 12.5, 678, /*total_p90=*/0.1);
  const JsonValue cand = rollup("paper", 12.5, 678, /*total_p90=*/0.111);
  BenchDiffOptions strict;
  strict.rel_tol = 0.05;
  strict.abs_floor_seconds = 1e-6;
  EXPECT_FALSE(diff_bench_rollups(base, cand, strict).ok());
  BenchDiffOptions loose;
  loose.rel_tol = 0.50;
  EXPECT_TRUE(diff_bench_rollups(base, cand, loose).ok());
}

TEST(BenchDiff, MissingCorrectnessFieldFails) {
  const JsonValue base = rollup();
  // Drop total_final_nops from the candidate only: schema drift on a
  // correctness field must not pass silently.
  std::string text = rollup_text("paper", 12.5, 678, 0.0021);
  const std::string needle = "\"total_final_nops\": 678,\n";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  text.erase(at, needle.size());
  const BenchDiffResult result = diff_bench_rollups(base, parse_json(text));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(count_status(result, BenchDiffLine::Status::Missing), 1u);
  for (const BenchDiffLine& line : result.lines) {
    if (line.field == "metrics.total_final_nops") {
      EXPECT_EQ(line.candidate, "-");
    }
  }
}

TEST(BenchDiff, InfoFieldsReportButNeverFail) {
  std::string text = rollup_text("paper", 12.5, 678, 0.0021);
  const std::string needle = "\"total_omega_calls\": 51234";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, needle.size(), "\"total_omega_calls\": 40000");
  const BenchDiffResult result =
      diff_bench_rollups(rollup(), parse_json(text));
  EXPECT_TRUE(result.ok());
  bool saw = false;
  for (const BenchDiffLine& line : result.lines) {
    if (line.field != "metrics.total_omega_calls") continue;
    saw = true;
    EXPECT_EQ(line.status, BenchDiffLine::Status::Info);
    EXPECT_NE(line.delta.find("-11234"), std::string::npos);
  }
  EXPECT_TRUE(saw);
}

TEST(BenchDiff, FieldsAbsentFromBothSidesAreSkipped) {
  // jsonl aggregations carry no machine config and no completed/truncated
  // columns; two such roll-ups must still be comparable.
  const char* records = R"({
    "metrics": {"blocks": 2, "errors": 0, "optimal_blocks": 2,
      "infeasible_blocks": 0, "curtailed_lambda_blocks": 0,
      "curtailed_deadline_blocks": 0, "total_initial_nops": 10,
      "total_final_nops": 4},
    "total_wall_seconds": 0.5,
    "total": {"avg_seconds": 0.25, "p50_seconds": 0.25,
      "p90_seconds": 0.3, "p99_seconds": 0.3}
  })";
  const JsonValue reduced = parse_json(records);
  const BenchDiffResult result = diff_bench_rollups(reduced, reduced);
  EXPECT_TRUE(result.ok());
  for (const BenchDiffLine& line : result.lines) {
    EXPECT_NE(line.field, "machine");
    EXPECT_NE(line.field.substr(0, 10), "completed.");
  }
}

std::vector<JsonValue> sample_records() {
  std::vector<JsonValue> records;
  auto record = [&](int initial, int final_nops, bool completed,
                    const char* reason, double seconds, bool feasible,
                    const char* error) {
    std::ostringstream oss;
    oss << R"({"initial_nops": )" << initial << R"(, "final_nops": )"
        << final_nops << R"(, "completed": )"
        << (completed ? "true" : "false") << R"(, "curtail_reason": ")"
        << reason << R"(", "feasible": )" << (feasible ? "true" : "false")
        << R"(, "omega_calls": 100, "nodes_expanded": 50,
            "schedules_examined": 3, "cache_probes": 40, "cache_hits": 8,
            "seconds": )"
        << seconds << R"(, "error": ")" << error << R"("})";
    records.push_back(parse_json(oss.str()));
  };
  record(10, 4, true, "none", 0.001, true, "");
  record(8, 2, true, "none", 0.002, true, "");
  record(12, 12, false, "lambda", 0.004, true, "");
  record(0, -1, true, "none", 0.0005, false, "");
  record(0, 0, false, "none", 0.0, true, "boom");
  return records;
}

TEST(BenchDiff, RollupFromRecordsAggregatesExactly) {
  const JsonValue roll = rollup_from_records(sample_records());
  auto num = [&](std::vector<std::string> path) {
    const JsonValue* v = roll.find_path(path);
    PS_CHECK(v != nullptr, "missing " << path.back());
    return v->as_number();
  };
  EXPECT_EQ(num({"metrics", "blocks"}), 5.0);
  EXPECT_EQ(num({"metrics", "errors"}), 1.0);
  // The completed, infeasible record proved that no schedule fits; it is
  // not an optimal block.
  EXPECT_EQ(num({"metrics", "optimal_blocks"}), 2.0);
  EXPECT_EQ(num({"metrics", "infeasible_blocks"}), 1.0);
  EXPECT_EQ(num({"metrics", "curtailed_lambda_blocks"}), 1.0);
  EXPECT_EQ(num({"metrics", "curtailed_deadline_blocks"}), 0.0);
  // NOP totals cover feasible, clean records only (the infeasible
  // record's final_nops=-1 must not wrap the total).
  EXPECT_EQ(num({"metrics", "total_initial_nops"}), 30.0);
  EXPECT_EQ(num({"metrics", "total_final_nops"}), 18.0);
  EXPECT_EQ(num({"metrics", "total_omega_calls"}), 400.0);
  EXPECT_NEAR(num({"total_wall_seconds"}), 0.0075, 1e-12);
  EXPECT_GT(num({"total", "p90_seconds"}), 0.0);
}

TEST(BenchDiff, JsonlPairModeEndToEnd) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ps_bench_diff_test";
  fs::create_directories(dir);
  const std::string path = (dir / "records.jsonl").string();
  {
    std::ofstream out(path);
    for (const JsonValue& r : sample_records()) {
      // Re-serialize each record onto ONE line (jsonl requires it).
      out << R"({"initial_nops": )" << r.find("initial_nops")->as_number()
          << R"(, "final_nops": )" << r.find("final_nops")->as_number()
          << R"(, "completed": )"
          << (r.find("completed")->as_bool() ? "true" : "false")
          << R"(, "curtail_reason": ")"
          << r.find("curtail_reason")->as_string() << R"(", "feasible": )"
          << (r.find("feasible")->as_bool() ? "true" : "false")
          << R"(, "omega_calls": 100, "nodes_expanded": 50, )"
          << R"("schedules_examined": 3, "cache_probes": 40, )"
          << R"("cache_hits": 8, "seconds": )"
          << r.find("seconds")->as_number() << R"(, "error": ")"
          << r.find("error")->as_string() << R"("})" << "\n";
    }
  }
  const BenchDiffResult result = diff_bench_files(path, path);
  EXPECT_TRUE(result.ok());
  EXPECT_THROW(diff_bench_files((dir / "nope.json").string(), path), Error);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pipesched
