#include "frontend/parser.hpp"

#include <array>
#include <charconv>
#include <string_view>

#include "util/check.hpp"

namespace pipesched {

namespace {

/// Byte classes in the "C" locale's terms: isspace, isdigit, and isalpha
/// or '_' (what may start an identifier).
enum : std::uint8_t { kSpace = 1, kDigit = 2, kIdentStart = 4 };

constexpr std::array<std::uint8_t, 256> kClass = [] {
  std::array<std::uint8_t, 256> c{};
  for (const char ch : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    c[static_cast<unsigned char>(ch)] = kSpace;
  }
  for (int ch = '0'; ch <= '9'; ++ch) c[ch] = kDigit;
  for (int ch = 'a'; ch <= 'z'; ++ch) c[ch] = kIdentStart;
  for (int ch = 'A'; ch <= 'Z'; ++ch) c[ch] = kIdentStart;
  c['_'] = kIdentStart;
  return c;
}();

std::uint8_t byte_class(char ch) {
  return kClass[static_cast<unsigned char>(ch)];
}

/// Upper bounds on what parsing `text` can build, from one pass over its
/// bytes. Every node is a leaf, a negation or a binary operator; each
/// operator consumes one of + - * /, each tree has one leaf more than
/// binary operators, and each tree hangs off an '=' (an assignment) or a
/// '(' (a condition). Each statement consumes an '=' or a '{'. Each name
/// is an identifier token.
struct Capacity {
  std::size_t exprs = 0;
  std::size_t statements = 0;
  std::size_t names = 0;
};

Capacity capacity_of(std::string_view text) {
  std::size_t operators = 0, assigns = 0, parens = 0, braces = 0, idents = 0;
  bool in_ident = false;
  for (const char ch : text) {
    const std::uint8_t cls = byte_class(ch);
    if (cls & kIdentStart) {
      idents += !in_ident;
      in_ident = true;
      continue;
    }
    in_ident = in_ident && (cls & kDigit);
    switch (ch) {
      case '+':
      case '-':
      case '*':
      case '/':
        ++operators;
        break;
      case '=':
        ++assigns;
        break;
      case '(':
        ++parens;
        break;
      case '{':
        ++braces;
        break;
      default:
        break;
    }
  }
  return {2 * operators + assigns + parens, assigns + braces, idents};
}

/// One token of lookahead over the text. Moving past a token skips the
/// whitespace and comments after it once.
class Lexer {
 public:
  enum class Token : std::uint8_t { End, Ident, Number, Punct };

  explicit Lexer(std::string_view text) : text_(text) { scan(0); }

  Token token() const { return token_; }
  std::string_view text() const {
    return text_.substr(begin_, end_ - begin_);
  }

  /// The current token's first byte; '\0' at the end of input.
  char peek() const { return token_ == Token::End ? '\0' : text_[begin_]; }

  /// The line of the current token, and of the one consumed before it.
  int line() const { return line_; }
  int last_line() const { return last_line_; }

  void advance() {
    last_line_ = line_;
    scan(end_);
  }

  bool accept(char c) {
    if (token_ != Token::Punct || text_[begin_] != c) return false;
    advance();
    return true;
  }

  void expect(char c) {
    PS_CHECK(accept(c), "line " << line_ << ": expected '" << c << "', found "
                                << (token_ == Token::End
                                        ? std::string("end of input")
                                        : std::string{'\'', peek(), '\''}));
  }

  /// Consume `word` if the current token is exactly that identifier.
  bool accept_word(std::string_view word) {
    if (token_ != Token::Ident || text() != word) return false;
    advance();
    return true;
  }

  std::string_view ident() {
    PS_CHECK(token_ == Token::Ident,
             "line " << line_ << ": expected identifier");
    const std::string_view name = text();
    advance();
    return name;
  }

  /// The current token, a Number, as a value.
  std::int64_t number() {
    std::int64_t value = 0;
    const std::from_chars_result parsed = std::from_chars(
        text_.data() + begin_, text_.data() + end_, value);
    PS_CHECK(parsed.ec == std::errc(),
             "line " << line_ << ": integer literal out of range");
    advance();
    return value;
  }

 private:
  /// Skip whitespace and comments from `pos`, then classify the token
  /// there.
  void scan(std::size_t pos) {
    for (;;) {
      while (pos < text_.size() && (byte_class(text_[pos]) & kSpace)) {
        if (text_[pos] == '\n') ++line_;
        ++pos;
      }
      if (pos + 1 < text_.size() && text_[pos] == '/' &&
          text_[pos + 1] == '/') {
        while (pos < text_.size() && text_[pos] != '\n') ++pos;
        continue;
      }
      break;
    }
    begin_ = pos;
    end_ = pos;
    if (pos >= text_.size()) {
      token_ = Token::End;
      return;
    }
    const std::uint8_t cls = byte_class(text_[pos]);
    const std::uint8_t body = cls & kIdentStart ? kIdentStart | kDigit
                              : cls & kDigit    ? kDigit
                                                : 0;
    token_ = cls & kIdentStart ? Token::Ident
             : cls & kDigit    ? Token::Number
                               : Token::Punct;
    ++end_;
    while (body != 0 && end_ < text_.size() &&
           (byte_class(text_[end_]) & body)) {
      ++end_;
    }
  }

  std::string_view text_;
  Token token_ = Token::End;
  std::size_t begin_ = 0;  ///< current token: [begin_, end_)
  std::size_t end_ = 0;
  int line_ = 1;
  int last_line_ = 1;
};

class Parser {
 public:
  explicit Parser(std::string_view text) : lex_(text) {
    const Capacity capacity = capacity_of(text);
    prog_.exprs.reserve(capacity.exprs);
    prog_.statements.reserve(capacity.statements);
    prog_.names.reserve(capacity.names);
  }

  SourceProgram program() {
    const bool braced = lex_.accept('{');
    statement_list(prog_.statements);
    if (braced) lex_.expect('}');
    PS_CHECK(lex_.token() == Lexer::Token::End,
             "line " << lex_.line() << ": trailing input after program");
    return std::move(prog_);
  }

 private:
  /// One nesting level for the enclosing scope (see kMaxSourceNesting),
  /// opened right after the token that starts it.
  class Nest {
   public:
    explicit Nest(Parser& parser) : parser_(parser) {
      PS_CHECK(++parser_.depth_ <= kMaxSourceNesting,
               "line " << parser_.lex_.last_line() << ": nesting deeper than "
                       << kMaxSourceNesting << " levels");
    }
    ~Nest() { --parser_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& parser_;
  };

  /// `e` itself, unless its tree is higher than the nesting limit; `line`
  /// is where the parser stands.
  ExprId bounded(ExprId e, int line) {
    PS_CHECK(prog_.expr(e).height <= kMaxSourceNesting,
             "line " << line << ": expression nested deeper than "
                     << kMaxSourceNesting << " levels");
    return e;
  }

  /// Statements until end of input or a '}' (left for the caller).
  void statement_list(std::vector<Stmt>& out) {
    while (lex_.token() != Lexer::Token::End && lex_.peek() != '}') {
      out.push_back(statement());
    }
  }

  std::vector<Stmt> braced_body() {
    const Nest nest(*this);
    lex_.expect('{');
    std::vector<Stmt> body;
    statement_list(body);
    lex_.expect('}');
    return body;
  }

  Stmt statement() {
    if (lex_.accept_word("if")) {
      lex_.expect('(');
      const ExprId cond = expr();
      lex_.expect(')');
      std::vector<Stmt> then_body = braced_body();
      std::vector<Stmt> else_body;
      if (lex_.accept_word("else")) else_body = braced_body();
      return Stmt::if_else(cond, std::move(then_body), std::move(else_body));
    }
    if (lex_.accept_word("while")) {
      lex_.expect('(');
      const ExprId cond = expr();
      lex_.expect(')');
      return Stmt::while_loop(cond, braced_body());
    }
    const NameId target = prog_.names.intern(lex_.ident());
    lex_.expect('=');
    const ExprId value = expr();
    lex_.expect(';');
    return Stmt::assign(target, value);
  }

  // A binary node is checked against the nesting limit once its right
  // operand is parsed: expr()'s right operand, a term(), has already looked
  // at the next token, a factor() has not.

  ExprId expr() {
    ExprId left = term();
    for (;;) {
      Expr::Kind kind;
      if (lex_.accept('+')) {
        kind = Expr::Kind::Add;
      } else if (lex_.accept('-')) {
        kind = Expr::Kind::Sub;
      } else {
        return left;
      }
      const ExprId right = term();
      left = bounded(prog_.make_binary(kind, left, right), lex_.line());
    }
  }

  ExprId term() {
    ExprId left = factor();
    for (;;) {
      Expr::Kind kind;
      if (lex_.accept('*')) {
        kind = Expr::Kind::Mul;
      } else if (lex_.accept('/')) {
        kind = Expr::Kind::Div;
      } else {
        return left;
      }
      const ExprId right = factor();
      left = bounded(prog_.make_binary(kind, left, right), lex_.last_line());
    }
  }

  ExprId factor() {
    if (lex_.accept('-')) {
      const Nest nest(*this);
      const ExprId operand = factor();
      return bounded(prog_.make_negate(operand), lex_.last_line());
    }
    if (lex_.accept('(')) {
      const Nest nest(*this);
      const ExprId inner = expr();
      lex_.expect(')');
      return inner;
    }
    if (lex_.token() == Lexer::Token::Number) {
      return prog_.make_number(lex_.number());
    }
    PS_CHECK(lex_.token() == Lexer::Token::Ident,
             "line " << lex_.line() << ": expected expression");
    return prog_.make_variable(lex_.ident());
  }

  Lexer lex_;
  SourceProgram prog_;
  int depth_ = 0;  ///< open nesting levels (see Nest)
};

}  // namespace

SourceProgram parse_source(const std::string& text) {
  return Parser(text).program();
}

}  // namespace pipesched
