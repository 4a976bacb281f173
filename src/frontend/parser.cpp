#include "frontend/parser.hpp"

#include <cctype>
#include <charconv>

#include "util/check.hpp"

namespace pipesched {

namespace {

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  void skip_ws() {
    for (;;) {
      while (pos_ < text_.size() &&
             std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        if (text_[pos_] == '\n') ++line_;
        ++pos_;
      }
      if (pos_ + 1 < text_.size() && text_[pos_] == '/' &&
          text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      return;
    }
  }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool accept(char c) {
    if (peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    PS_CHECK(accept(c), "line " << line_ << ": expected '" << c << "', found '"
                                << peek() << "'");
  }

  bool peek_ident() {
    const char c = peek();
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }

  bool peek_number() {
    return std::isdigit(static_cast<unsigned char>(peek()));
  }

  std::string ident() {
    PS_CHECK(peek_ident(), "line " << line_ << ": expected identifier");
    std::size_t begin = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    return text_.substr(begin, pos_ - begin);
  }

  /// Consume `word` if the next token is exactly that identifier.
  bool accept_word(const std::string& word) {
    skip_ws();
    const std::size_t saved = pos_;
    if (!peek_ident()) return false;
    if (ident() == word) return true;
    pos_ = saved;
    return false;
  }

  std::int64_t number() {
    PS_CHECK(peek_number(), "line " << line_ << ": expected number");
    std::size_t begin = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    std::int64_t value = 0;
    const std::from_chars_result parsed =
        std::from_chars(text_.data() + begin, text_.data() + pos_, value);
    PS_CHECK(parsed.ec == std::errc(),
             "line " << line_ << ": integer literal out of range");
    return value;
  }

  int line() const { return line_; }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

class Parser {
 public:
  explicit Parser(const std::string& text) : lex_(text) {}

  SourceProgram program() {
    SourceProgram prog;
    const bool braced = lex_.accept('{');
    prog.statements = statement_list();
    if (braced) lex_.expect('}');
    PS_CHECK(lex_.at_end(),
             "line " << lex_.line() << ": trailing input after program");
    return prog;
  }

 private:
  /// One nesting level for the enclosing scope (see kMaxSourceNesting).
  class Nest {
   public:
    explicit Nest(Parser& parser) : parser_(parser) {
      PS_CHECK(++parser_.depth_ <= kMaxSourceNesting,
               "line " << parser_.lex_.line() << ": nesting deeper than "
                       << kMaxSourceNesting << " levels");
    }
    ~Nest() { --parser_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& parser_;
  };

  /// `e` itself, unless its tree is higher than the nesting limit.
  ExprPtr bounded(ExprPtr e) {
    PS_CHECK(e->height <= kMaxSourceNesting,
             "line " << lex_.line() << ": expression nested deeper than "
                     << kMaxSourceNesting << " levels");
    return e;
  }

  /// Statements until end of input or a '}' (left for the caller).
  std::vector<Stmt> statement_list() {
    std::vector<Stmt> out;
    while (!lex_.at_end() && lex_.peek() != '}') {
      out.push_back(statement());
    }
    return out;
  }

  std::vector<Stmt> braced_body() {
    const Nest nest(*this);
    lex_.expect('{');
    std::vector<Stmt> body = statement_list();
    lex_.expect('}');
    return body;
  }

  Stmt statement() {
    if (lex_.accept_word("if")) {
      lex_.expect('(');
      ExprPtr cond = expr();
      lex_.expect(')');
      std::vector<Stmt> then_body = braced_body();
      std::vector<Stmt> else_body;
      if (lex_.accept_word("else")) else_body = braced_body();
      return Stmt::if_else(std::move(cond), std::move(then_body),
                           std::move(else_body));
    }
    if (lex_.accept_word("while")) {
      lex_.expect('(');
      ExprPtr cond = expr();
      lex_.expect(')');
      return Stmt::while_loop(std::move(cond), braced_body());
    }
    std::string target = lex_.ident();
    lex_.expect('=');
    ExprPtr value = expr();
    lex_.expect(';');
    return Stmt::assign(std::move(target), std::move(value));
  }

  ExprPtr expr() {
    ExprPtr left = term();
    for (;;) {
      if (lex_.accept('+')) {
        left = bounded(
            Expr::make_binary(Expr::Kind::Add, std::move(left), term()));
      } else if (lex_.accept('-')) {
        left = bounded(
            Expr::make_binary(Expr::Kind::Sub, std::move(left), term()));
      } else {
        return left;
      }
    }
  }

  ExprPtr term() {
    ExprPtr left = factor();
    for (;;) {
      if (lex_.accept('*')) {
        left = bounded(
            Expr::make_binary(Expr::Kind::Mul, std::move(left), factor()));
      } else if (lex_.accept('/')) {
        left = bounded(
            Expr::make_binary(Expr::Kind::Div, std::move(left), factor()));
      } else {
        return left;
      }
    }
  }

  ExprPtr factor() {
    if (lex_.accept('-')) {
      const Nest nest(*this);
      return bounded(Expr::make_negate(factor()));
    }
    if (lex_.accept('(')) {
      const Nest nest(*this);
      ExprPtr inner = expr();
      lex_.expect(')');
      return inner;
    }
    if (lex_.peek_number()) return Expr::make_number(lex_.number());
    PS_CHECK(lex_.peek_ident(),
             "line " << lex_.line() << ": expected expression");
    return Expr::make_variable(lex_.ident());
  }

  Lexer lex_;
  int depth_ = 0;  ///< open nesting levels (see Nest)
};

}  // namespace

SourceProgram parse_source(const std::string& text) {
  return Parser(text).program();
}

}  // namespace pipesched
