#include "ir/block_parser.hpp"

#include <cctype>
#include <charconv>
#include <limits>

#include "util/check.hpp"
#include "util/strings.hpp"

namespace pipesched {

namespace {

/// Cursor over one line of tuple text.
class LineCursor {
 public:
  LineCursor(const std::string& line, int line_no)
      : line_(line), line_no_(line_no) {}

  void skip_ws() {
    while (pos_ < line_.size() &&
           std::isspace(static_cast<unsigned char>(line_[pos_]))) {
      ++pos_;
    }
  }

  bool at_end() {
    skip_ws();
    return pos_ >= line_.size();
  }

  char peek() {
    skip_ws();
    return pos_ < line_.size() ? line_[pos_] : '\0';
  }

  void expect(char c) {
    PS_CHECK(peek() == c, "line " << line_no_ << ": expected '" << c
                                  << "' near column " << pos_);
    ++pos_;
  }

  std::string word() {
    skip_ws();
    std::size_t begin = pos_;
    // '.' is legal in variable names: the compiler's own temporaries
    // (".c0" branch conditions, ".s0" spill slots) must round-trip.
    while (pos_ < line_.size() &&
           (std::isalnum(static_cast<unsigned char>(line_[pos_])) ||
            line_[pos_] == '_' || line_[pos_] == '.')) {
      ++pos_;
    }
    PS_CHECK(pos_ > begin, "line " << line_no_ << ": expected identifier");
    return line_.substr(begin, pos_ - begin);
  }

  std::int64_t integer() {
    skip_ws();
    std::size_t begin = pos_;
    if (pos_ < line_.size() && (line_[pos_] == '-' || line_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < line_.size() &&
           std::isdigit(static_cast<unsigned char>(line_[pos_]))) {
      ++pos_;
    }
    PS_CHECK(pos_ > begin && std::isdigit(static_cast<unsigned char>(
                                 line_[pos_ - 1])),
             "line " << line_no_ << ": expected integer");
    if (line_[begin] == '+') ++begin;  // from_chars takes only '-'
    std::int64_t value = 0;
    const std::from_chars_result parsed =
        std::from_chars(line_.data() + begin, line_.data() + pos_, value);
    PS_CHECK(parsed.ec == std::errc(),
             "line " << line_no_ << ": integer out of range");
    return value;
  }

  int line_no() const { return line_no_; }

 private:
  const std::string& line_;
  int line_no_;
  std::size_t pos_ = 0;
};

Operand parse_operand(LineCursor& cur, BasicBlock& block) {
  const char c = cur.peek();
  if (c == '#') {
    cur.expect('#');
    return Operand::of_var(block.var_id(cur.word()));
  }
  if (c == '"') {
    cur.expect('"');
    const std::int64_t value = cur.integer();
    cur.expect('"');
    return Operand::of_imm(value);
  }
  if (c == '_') {
    cur.expect('_');
    return Operand::none();
  }
  const std::int64_t ref = cur.integer();
  PS_CHECK(ref >= 1, "line " << cur.line_no()
                             << ": tuple references are 1-based, got " << ref);
  PS_CHECK(ref <= std::numeric_limits<TupleIndex>::max(),
           "line " << cur.line_no() << ": tuple reference " << ref
                   << " is out of range");
  return Operand::of_ref(static_cast<TupleIndex>(ref - 1));
}

}  // namespace

BasicBlock parse_block(const std::string& text, std::string label) {
  BasicBlock block(std::move(label));
  int line_no = 0;
  for (const std::string& raw : split(text, '\n')) {
    ++line_no;
    std::string line = raw;
    if (auto comment = line.find(';'); comment != std::string::npos) {
      line = line.substr(0, comment);
    }
    line = trim(line);
    if (line.empty()) continue;
    // A bare "name:" line (no opcode after it) sets the block label.
    if (line.back() == ':') {
      block.set_label(line.substr(0, line.size() - 1));
      continue;
    }

    LineCursor cur(line, line_no);
    const std::int64_t number = cur.integer();
    cur.expect(':');
    PS_CHECK(number == static_cast<std::int64_t>(block.size()) + 1,
             "line " << line_no << ": tuples must be numbered sequentially; "
                     << "expected " << block.size() + 1 << " got " << number);

    const std::string mnemonic = cur.word();
    const auto op = opcode_from_name(mnemonic);
    PS_CHECK(op.has_value(),
             "line " << line_no << ": unknown opcode '" << mnemonic << "'");

    Tuple t;
    t.op = *op;
    const int arity = opcode_arity(t.op);
    if (arity >= 1) t.a = parse_operand(cur, block);
    if (arity >= 2) {
      cur.expect(',');
      t.b = parse_operand(cur, block);
    }
    PS_CHECK(cur.at_end(),
             "line " << line_no << ": trailing characters after tuple");
    block.append(t);
  }
  return block;
}

}  // namespace pipesched
