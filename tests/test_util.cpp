// Unit tests for the utility layer.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <set>

#include "util/ascii_chart.hpp"
#include "util/bitset.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace pipesched {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextInCoversInclusiveRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, WeightedRespectsZeroWeights) {
  Rng rng(3);
  const std::vector<double> weights = {0.0, 1.0, 0.0, 2.0};
  for (int i = 0; i < 500; ++i) {
    const std::size_t pick = rng.next_weighted(weights);
    EXPECT_TRUE(pick == 1 || pick == 3);
  }
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng base(99);
  Rng s1 = base.split(1);
  Rng s2 = base.split(2);
  Rng s1_again = Rng(99).split(1);
  EXPECT_EQ(s1.next_u64(), s1_again.next_u64());
  EXPECT_NE(s1.next_u64(), s2.next_u64());
}

TEST(Bitset, SetTestResetCount) {
  DynBitset bits(130);
  bits.set(0);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(129));
  EXPECT_FALSE(bits.test(1));
  EXPECT_EQ(bits.count(), 3u);
  bits.reset(64);
  EXPECT_FALSE(bits.test(64));
  EXPECT_EQ(bits.count(), 2u);
}

TEST(Bitset, SubsetAndDisjoint) {
  DynBitset a(100);
  DynBitset b(100);
  a.set(3);
  a.set(70);
  b.set(3);
  b.set(70);
  b.set(99);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  DynBitset c(100);
  c.set(42);
  EXPECT_TRUE(a.is_disjoint_from(c));
  c.set(70);
  EXPECT_FALSE(a.is_disjoint_from(c));
}

TEST(Bitset, ForEachVisitsAscending) {
  DynBitset bits(200);
  const std::vector<std::size_t> expected = {5, 63, 64, 150, 199};
  for (auto i : expected) bits.set(i);
  std::vector<std::size_t> seen;
  bits.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(Stats, AccumulatorMoments) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> values = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(values, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(values, 25), 2.0);
}

TEST(Stats, QuantilesMatchPercentileWithOneSort) {
  std::vector<double> values = {9, 1, 5, 3, 7, 2, 8, 4, 6, 10};
  const std::vector<double> qs = quantiles(values, {0, 25, 50, 90, 100});
  ASSERT_EQ(qs.size(), 5u);
  EXPECT_DOUBLE_EQ(qs[0], percentile(values, 0));
  EXPECT_DOUBLE_EQ(qs[1], percentile(values, 25));
  EXPECT_DOUBLE_EQ(qs[2], percentile(values, 50));
  EXPECT_DOUBLE_EQ(qs[3], percentile(values, 90));
  EXPECT_DOUBLE_EQ(qs[4], percentile(values, 100));
}

TEST(Stats, QuantilesSingleValue) {
  const std::vector<double> qs = quantiles({42.0}, {0, 50, 99, 100});
  for (double q : qs) EXPECT_DOUBLE_EQ(q, 42.0);
}

TEST(Stats, PercentileSingleValueIsThatValueForAnyP) {
  for (double p : {0.0, 1.0, 50.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile({7.5}, p), 7.5) << p;
  }
}

TEST(Stats, EmptySampleThrows) {
  EXPECT_THROW(percentile({}, 50.0), Error);
  EXPECT_THROW(quantiles({}, {50.0}), Error);
  // An empty percentile LIST of a non-empty sample is fine: no work.
  EXPECT_TRUE(quantiles({1.0, 2.0}, {}).empty());
}

TEST(Stats, PercentileOutOfRangeThrows) {
  EXPECT_THROW(percentile({1.0, 2.0}, -0.5), Error);
  EXPECT_THROW(percentile({1.0, 2.0}, 100.5), Error);
  EXPECT_THROW(quantiles({1.0, 2.0}, {50.0, 101.0}), Error);
}

TEST(Stats, HistogramAccumulates) {
  Histogram h;
  h.add(3);
  h.add(3);
  h.add(10);
  EXPECT_DOUBLE_EQ(h.total(), 3.0);
  EXPECT_EQ(h.min_key(), 3);
  EXPECT_EQ(h.max_key(), 10);
  EXPECT_DOUBLE_EQ(h.bins().at(3), 2.0);
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1307674368000ull), "1,307,674,368,000");
}

TEST(Strings, TrimAndSplit) {
  EXPECT_EQ(trim("  a b \t\n"), "a b");
  EXPECT_EQ(split("a,b,,c", ',').size(), 4u);
  EXPECT_EQ(split("a,b,,c", ',')[2], "");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_right("abcdef", 3), "abcdef");
}

TEST(Csv, QuotesSpecialCharacters) {
  const std::string path = "test_util_out.csv";
  {
    CsvWriter csv(path);
    csv.row({"a", "b,c", "d\"e"});
    csv.row_of(1, 2.5, "x");
  }
  std::ifstream in(path);
  std::string line1;
  std::string line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,\"b,c\",\"d\"\"e\"");
  EXPECT_EQ(line2, "1,2.5,x");
  std::filesystem::remove(path);
}

TEST(Csv, FlushDetectsWriteFailure) {
  // /dev/full accepts the open but fails every physical write — the
  // classic disk-full simulation. Skip on systems without it.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP();
  CsvWriter csv("/dev/full");
  // The stream buffers, so rows may appear to succeed; flush() must not.
  EXPECT_THROW(
      {
        for (int i = 0; i < 100000; ++i) csv.row({"some", "cells", "here"});
        csv.flush();
      },
      Error);
}

TEST(Csv, CloseReportsCleanWrite) {
  const std::string path = "test_util_close.csv";
  CsvWriter csv(path);
  csv.row({"a", "b"});
  EXPECT_NO_THROW(csv.close());
  std::filesystem::remove(path);
}

TEST(Jsonl, WritesOneObjectPerLine) {
  const std::string path = "test_util_out.jsonl";
  {
    JsonlWriter out(path);
    out.begin();
    out.field("name", "a\"b\nc");
    out.field("count", std::uint64_t{42});
    out.field("ok", true);
    out.field_raw("ratio", "0.5");
    out.end();
    out.close();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line,
            "{\"name\":\"a\\\"b\\nc\",\"count\":42,\"ok\":true,"
            "\"ratio\":0.5}");
  std::filesystem::remove(path);
}

TEST(Jsonl, FlushDetectsWriteFailure) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP();
  JsonlWriter out("/dev/full");
  EXPECT_THROW(
      {
        for (int i = 0; i < 100000; ++i) {
          out.begin();
          out.field("k", i);
          out.end();
        }
        out.flush();
      },
      Error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  parallel_for_each(pool, hits.size(),
                    [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 3; ++batch) {
    parallel_for_each(pool, 50, [&](std::size_t) { ++counter; });
  }
  EXPECT_EQ(counter.load(), 150);
}

TEST(ThreadPool, WorkerExceptionPropagatesToCaller) {
  // Before the fix a throwing worker called std::terminate and took the
  // whole process down; now the first exception is rethrown on the
  // calling thread once the batch drains.
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for_each(pool, 64,
                                 [&](std::size_t i) {
                                   if (i == 13) {
                                     throw Error("worker fault");
                                   }
                                 }),
               Error);

  // The pool must survive the failed batch and run later ones normally.
  std::atomic<int> counter{0};
  parallel_for_each(pool, 64, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, FirstExceptionWinsWhenManyThrow) {
  ThreadPool pool(4);
  try {
    parallel_for_each(pool, 256, [&](std::size_t i) {
      throw Error("fault at " + std::to_string(i));
    });
    FAIL() << "expected parallel_for_each to rethrow";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("fault at "), std::string::npos);
  }
}

TEST(AsciiChart, RendersWithoutCrashing) {
  std::vector<ChartPoint> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back({static_cast<double>(i), static_cast<double>(i * i)});
  }
  ChartOptions options;
  options.title = "test";
  options.log_y = true;
  const std::string chart = render_scatter(points, options);
  EXPECT_NE(chart.find("test"), std::string::npos);
  EXPECT_GT(chart.size(), 100u);

  Histogram h;
  h.add(1, 5);
  h.add(2, 10);
  const std::string bars = render_histogram(h, options);
  EXPECT_NE(bars.find("#"), std::string::npos);
}

TEST(Json, ParsesScalarsObjectsArrays) {
  const JsonValue doc = parse_json(
      R"({"a": 1.5, "b": [true, false, null], "c": {"nested": "x"},
          "neg": -3e2, "big": 123456789})");
  EXPECT_DOUBLE_EQ(doc.find("a")->as_number(), 1.5);
  const auto& arr = doc.find("b")->as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_TRUE(arr[0].as_bool());
  EXPECT_FALSE(arr[1].as_bool());
  EXPECT_TRUE(arr[2].is_null());
  EXPECT_EQ(doc.find_path({"c", "nested"})->as_string(), "x");
  EXPECT_DOUBLE_EQ(doc.find("neg")->as_number(), -300.0);
  EXPECT_DOUBLE_EQ(doc.find("big")->as_number(), 123456789.0);
  EXPECT_EQ(doc.find("absent"), nullptr);
  EXPECT_EQ(doc.find_path({"c", "absent"}), nullptr);
}

TEST(Json, DecodesEscapesAndSurrogatePairs) {
  const JsonValue doc =
      parse_json(R"({"s": "tab\t quote\" back\\ u\u00e9 \ud83d\ude00"})");
  const std::string& s = doc.find("s")->as_string();
  EXPECT_NE(s.find('\t'), std::string::npos);
  EXPECT_NE(s.find('"'), std::string::npos);
  EXPECT_NE(s.find('\\'), std::string::npos);
  EXPECT_NE(s.find("\xc3\xa9"), std::string::npos);          // é
  EXPECT_NE(s.find("\xf0\x9f\x98\x80"), std::string::npos);  // emoji
}

TEST(Json, DeepNestingRaisesError) {
  // Must end in Error, not overflow the recursive-descent parser's stack.
  EXPECT_THROW(parse_json(std::string(200000, '[') + std::string(200000, ']')),
               Error);
  const std::size_t ok = kMaxJsonDepth;
  EXPECT_TRUE(
      parse_json(std::string(ok, '[') + std::string(ok, ']')).is_array());
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(parse_json(""), Error);
  EXPECT_THROW(parse_json("{"), Error);
  EXPECT_THROW(parse_json("{\"a\": }"), Error);
  EXPECT_THROW(parse_json("[1, 2,]"), Error);
  EXPECT_THROW(parse_json("01"), Error);       // leading zero
  EXPECT_THROW(parse_json("1.."), Error);
  EXPECT_THROW(parse_json("nul"), Error);
  EXPECT_THROW(parse_json("{} trailing"), Error);
  EXPECT_THROW(parse_json("\"unterminated"), Error);
  EXPECT_THROW(parse_json("\"\\ud83d\""), Error);  // lone surrogate
}

TEST(Json, IntegerSyntaxKeepsExactInt64) {
  // 2^53 + 1 is the first integer a double cannot represent; a parser
  // routing everything through strtod would silently read 2^53.
  const JsonValue doc = parse_json(
      R"({"big": 9007199254740993, "neg": -9007199254740993,
          "max": 9223372036854775807, "min": -9223372036854775808,
          "flt": 9007199254740993.0, "exp": 9e15, "small": 42})");
  ASSERT_TRUE(doc.find("big")->is_integer());
  EXPECT_EQ(doc.find("big")->as_int64(), 9007199254740993LL);
  EXPECT_EQ(doc.find("neg")->as_int64(), -9007199254740993LL);
  EXPECT_EQ(doc.find("max")->as_int64(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(doc.find("min")->as_int64(),
            std::numeric_limits<std::int64_t>::min());
  // '.'/'e' syntax stays a double even when the value is integral.
  EXPECT_FALSE(doc.find("flt")->is_integer());
  EXPECT_FALSE(doc.find("exp")->is_integer());
  EXPECT_THROW(doc.find("flt")->as_int64(), Error);
  // as_number still works on exact integers (with the usual rounding).
  EXPECT_TRUE(doc.find("small")->is_integer());
  EXPECT_DOUBLE_EQ(doc.find("small")->as_number(), 42.0);
}

TEST(Json, OutOfRangeIntegerFallsBackToDouble) {
  const JsonValue doc = parse_json(R"({"v": 98765432109876543210})");
  ASSERT_TRUE(doc.find("v")->is_number());
  EXPECT_FALSE(doc.find("v")->is_integer());
  EXPECT_DOUBLE_EQ(doc.find("v")->as_number(), 9.876543210987654e19);
}

TEST(Json, MakeIntegerRoundTripsAbove2To53) {
  const JsonValue v = JsonValue::make_integer(9007199254740993LL);
  EXPECT_TRUE(v.is_integer());
  EXPECT_EQ(v.as_int64(), 9007199254740993LL);
}

TEST(Json, TypeMismatchAccessorsThrow) {
  const JsonValue doc = parse_json(R"({"n": 1})");
  EXPECT_THROW(doc.find("n")->as_string(), Error);
  EXPECT_THROW(doc.find("n")->as_array(), Error);
  EXPECT_THROW(doc.as_number(), Error);
}

TEST(Json, JsonlFileParsesLineByLine) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "ps_test_util.jsonl";
  {
    std::ofstream out(path);
    out << "{\"i\": 0}\n\n{\"i\": 1}\n";  // blank lines are skipped
  }
  const std::vector<JsonValue> records = parse_jsonl_file(path.string());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[1].find("i")->as_number(), 1.0);
  fs::remove(path);
  EXPECT_THROW(parse_json_file((fs::temp_directory_path() /
                                "ps_no_such_file.json")
                                   .string()),
               Error);
}

}  // namespace
}  // namespace pipesched
