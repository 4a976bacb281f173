#include "util/json.hpp"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/check.hpp"

namespace pipesched {

bool JsonValue::as_bool() const {
  PS_CHECK(kind_ == Kind::Bool, "JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  PS_CHECK(kind_ == Kind::Number, "JSON value is not a number");
  return integer_ ? static_cast<double>(int_) : number_;
}

std::int64_t JsonValue::as_int64() const {
  PS_CHECK(is_integer(), "JSON value is not an exact integer");
  return int_;
}

const std::string& JsonValue::as_string() const {
  PS_CHECK(kind_ == Kind::String, "JSON value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  PS_CHECK(kind_ == Kind::Array, "JSON value is not an array");
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::as_object()
    const {
  PS_CHECK(kind_ == Kind::Object, "JSON value is not an object");
  return object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue* JsonValue::find_path(
    const std::vector<std::string>& keys) const {
  const JsonValue* v = this;
  for (const std::string& key : keys) {
    v = v->find(key);
    if (v == nullptr) return nullptr;
  }
  return v;
}

JsonValue JsonValue::make_null() { return JsonValue(); }

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double n) {
  JsonValue v;
  v.kind_ = Kind::Number;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::make_integer(std::int64_t n) {
  JsonValue v;
  v.kind_ = Kind::Number;
  v.integer_ = true;
  v.int_ = n;
  v.number_ = static_cast<double>(n);
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::String;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::Array;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::Object;
  v.object_ = std::move(members);
  return v;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value();
    skip_ws();
    PS_CHECK(pos_ == text_.size(),
             "JSON: trailing content at byte " << pos_);
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("JSON: " + what + " at byte " + std::to_string(pos_));
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume_literal(const char* lit) {
    std::size_t i = 0;
    while (lit[i] != '\0') {
      if (pos_ + i >= text_.size() || text_[pos_ + i] != lit[i]) return false;
      ++i;
    }
    pos_ += i;
    return true;
  }

  JsonValue parse_value() {
    switch (peek()) {
      case '{':
      case '[': {
        // The parser recurses once per open container, and so does every
        // consumer of the tree; a depth cap keeps hostile input from
        // overflowing the stack.
        if (++depth_ > kMaxJsonDepth) {
          fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
               " levels");
        }
        JsonValue v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"':
        return JsonValue::make_string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::make_bool(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::make_bool(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue::make_null();
        fail("bad literal");
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = take();
      if (c == '}') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}'");
      }
    }
    return JsonValue::make_object(std::move(members));
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    for (;;) {
      skip_ws();
      items.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') break;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']'");
      }
    }
    return JsonValue::make_array(std::move(items));
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        --pos_;
        fail("bad \\u escape");
      }
    }
    return value;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            expect('\\');
            expect('u');
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("bad surrogate pair");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          --pos_;
          fail("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    // Integer part: "0" or a nonzero-led run (JSON forbids leading zeros).
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
    } else if (digits() == 0) {
      fail("bad number");
    }
    bool integer_syntax = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integer_syntax = false;
      ++pos_;
      if (digits() == 0) fail("bad number: no digits after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integer_syntax = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail("bad number: no exponent digits");
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (integer_syntax) {
      // Keep integer-syntax tokens exact when they fit int64; doubles
      // round everything past 2^53, which the exact-compare consumer
      // (bench_diff's correctness fields) cannot tolerate. Out-of-range
      // integers fall through to the double path.
      errno = 0;
      char* end = nullptr;
      const long long parsed = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return JsonValue::make_integer(static_cast<std::int64_t>(parsed));
      }
    }
    return JsonValue::make_number(std::strtod(token.c_str(), nullptr));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< open objects and arrays
};

}  // namespace

JsonValue parse_json(const std::string& text) {
  Parser parser(text);
  return parser.parse_document();
}

JsonValue parse_json_file(const std::string& path) {
  std::ifstream in(path);
  PS_CHECK(in.good(), "cannot open JSON file: " << path);
  std::ostringstream oss;
  oss << in.rdbuf();
  try {
    return parse_json(oss.str());
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

std::vector<JsonValue> parse_jsonl_file(const std::string& path) {
  std::ifstream in(path);
  PS_CHECK(in.good(), "cannot open JSONL file: " << path);
  std::vector<JsonValue> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    bool blank = true;
    for (char c : line) {
      if (c != ' ' && c != '\t' && c != '\r') {
        blank = false;
        break;
      }
    }
    if (blank) continue;
    try {
      out.push_back(parse_json(line));
    } catch (const Error& e) {
      throw Error(path + ":" + std::to_string(lineno) + ": " + e.what());
    }
  }
  return out;
}

}  // namespace pipesched
