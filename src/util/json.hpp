// Minimal JSON reader for the tooling layer.
//
// The repo's exporters (JsonlWriter, trace_write_json,
// write_corpus_bench_json, metrics JSON snapshots) only ever *write* JSON;
// the bench regression gate and the test suite also need to *read* it back
// — without adding an external dependency. This is a small, strict,
// recursive-descent parser over the full JSON grammar (RFC 8259): objects
// preserve key order, \uXXXX escapes decode to UTF-8 (surrogate pairs
// included). Malformed input throws pipesched::Error with a byte offset,
// never yields a half-parsed value.
//
// Numbers: integer-syntax tokens (no '.', no exponent) that fit int64 are
// kept EXACTLY (is_integer()/as_int64()) instead of being routed through a
// double — u64-scale counters like omega-call totals exceed 2^53 on long
// uptimes, and a silently rounded value would make bench_diff's exact
// comparisons pass (or fail) on the wrong number. Everything else parses
// as a double, and as_number() still works for both shapes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pipesched {

/// One parsed JSON value. A tagged union kept deliberately simple:
/// accessors check the kind (throwing Error on mismatch) so consumers can
/// chain lookups without defensive branching.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  /// True for numbers carrying an exact int64 (integer-syntax token in
  /// range, or make_integer). as_number() works on these too, with the
  /// usual precision loss above 2^53.
  bool is_integer() const { return kind_ == Kind::Number && integer_; }

  /// Checked accessors: throw pipesched::Error on a kind mismatch.
  bool as_bool() const;
  double as_number() const;

  /// Exact integer value; throws unless is_integer().
  std::int64_t as_int64() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::vector<std::pair<std::string, JsonValue>>& as_object() const;

  /// Object member lookup (first match); null when absent or not an object.
  const JsonValue* find(const std::string& key) const;

  /// Nested lookup: find("a")->find("b") without the null checks; null as
  /// soon as any step is absent.
  const JsonValue* find_path(const std::vector<std::string>& keys) const;

  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  static JsonValue make_integer(std::int64_t n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  bool integer_ = false;     ///< number carries an exact int64 in int_
  double number_ = 0;
  std::int64_t int_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Deepest nesting of objects and arrays the parser accepts; deeper
/// documents raise Error.
inline constexpr int kMaxJsonDepth = 1000;

/// Parse one complete JSON document; trailing non-whitespace is an error.
JsonValue parse_json(const std::string& text);

/// Parse the JSON document stored at `path`; throws Error on I/O failure.
JsonValue parse_json_file(const std::string& path);

/// Parse a JSON-lines file: one document per non-empty line.
std::vector<JsonValue> parse_jsonl_file(const std::string& path);

}  // namespace pipesched
