// Recursive-descent parser for the textual expression grammar (see expr.h).

#include <cctype>
#include <cstdlib>

#include "qp/expr.h"

namespace pier {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<ExprPtr> Parse() {
    PIER_ASSIGN_OR_RETURN(ExprPtr e, ParseOr());
    SkipSpace();
    if (pos_ != text_.size())
      return Status::InvalidArgument("trailing input at '" +
                                     std::string(text_.substr(pos_)) + "'");
    return e;
  }

 private:
  Result<ExprPtr> ParseOr() {
    PIER_ASSIGN_OR_RETURN(ExprPtr l, ParseAnd());
    while (AcceptWord("or")) {
      PIER_ASSIGN_OR_RETURN(ExprPtr r, ParseAnd());
      l = Expr::Or(std::move(l), std::move(r));
    }
    return l;
  }

  Result<ExprPtr> ParseAnd() {
    PIER_ASSIGN_OR_RETURN(ExprPtr l, ParseNot());
    while (AcceptWord("and")) {
      PIER_ASSIGN_OR_RETURN(ExprPtr r, ParseNot());
      l = Expr::And(std::move(l), std::move(r));
    }
    return l;
  }

  Result<ExprPtr> ParseNot() {
    if (AcceptWord("not")) {
      PIER_ASSIGN_OR_RETURN(ExprPtr e, ParseNot());
      return Expr::Not(std::move(e));
    }
    return ParseCmp();
  }

  Result<ExprPtr> ParseCmp() {
    PIER_ASSIGN_OR_RETURN(ExprPtr l, ParseAdd());
    SkipSpace();
    CmpOp op;
    if (Accept("!=") || Accept("<>")) {
      op = CmpOp::kNe;
    } else if (Accept(">=")) {
      op = CmpOp::kGe;
    } else if (Accept("<=")) {
      op = CmpOp::kLe;
    } else if (Accept("=")) {
      op = CmpOp::kEq;
    } else if (Accept(">")) {
      op = CmpOp::kGt;
    } else if (Accept("<")) {
      op = CmpOp::kLt;
    } else {
      return l;
    }
    PIER_ASSIGN_OR_RETURN(ExprPtr r, ParseAdd());
    return Expr::Cmp(op, std::move(l), std::move(r));
  }

  Result<ExprPtr> ParseAdd() {
    PIER_ASSIGN_OR_RETURN(ExprPtr l, ParseMul());
    for (;;) {
      SkipSpace();
      if (Accept("+")) {
        PIER_ASSIGN_OR_RETURN(ExprPtr r, ParseMul());
        l = Expr::Arith(ArithOp::kAdd, std::move(l), std::move(r));
      } else if (Accept("-")) {
        PIER_ASSIGN_OR_RETURN(ExprPtr r, ParseMul());
        l = Expr::Arith(ArithOp::kSub, std::move(l), std::move(r));
      } else {
        return l;
      }
    }
  }

  Result<ExprPtr> ParseMul() {
    PIER_ASSIGN_OR_RETURN(ExprPtr l, ParseUnary());
    for (;;) {
      SkipSpace();
      if (Accept("*")) {
        PIER_ASSIGN_OR_RETURN(ExprPtr r, ParseUnary());
        l = Expr::Arith(ArithOp::kMul, std::move(l), std::move(r));
      } else if (Accept("/")) {
        PIER_ASSIGN_OR_RETURN(ExprPtr r, ParseUnary());
        l = Expr::Arith(ArithOp::kDiv, std::move(l), std::move(r));
      } else if (Accept("%")) {
        PIER_ASSIGN_OR_RETURN(ExprPtr r, ParseUnary());
        l = Expr::Arith(ArithOp::kMod, std::move(l), std::move(r));
      } else {
        return l;
      }
    }
  }

  Result<ExprPtr> ParseUnary() {
    SkipSpace();
    if (Accept("-")) {
      PIER_ASSIGN_OR_RETURN(ExprPtr e, ParseUnary());
      return Expr::Arith(ArithOp::kSub, Expr::Const(Value::Int64(0)),
                         std::move(e));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    SkipSpace();
    if (pos_ >= text_.size())
      return Status::InvalidArgument("unexpected end of expression");
    char c = text_[pos_];
    if (c == '(') {
      ++pos_;
      PIER_ASSIGN_OR_RETURN(ExprPtr e, ParseOr());
      SkipSpace();
      if (!Accept(")")) return Status::InvalidArgument("expected ')'");
      return e;
    }
    if (c == '\'') return ParseStringLiteral();
    if (std::isdigit(static_cast<unsigned char>(c))) return ParseNumber();
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_')
      return ParseIdentifier();
    return Status::InvalidArgument(std::string("unexpected character '") + c +
                                   "'");
  }

  Result<ExprPtr> ParseStringLiteral() {
    ++pos_;  // opening quote
    std::string s;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '\'') {
        // '' escapes a quote, SQL style.
        if (pos_ < text_.size() && text_[pos_] == '\'') {
          s.push_back('\'');
          ++pos_;
          continue;
        }
        return Expr::Const(Value::String(std::move(s)));
      }
      s.push_back(c);
    }
    return Status::InvalidArgument("unterminated string literal");
  }

  Result<ExprPtr> ParseNumber() {
    size_t start = pos_;
    bool is_double = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '+' || text_[pos_] == '-') && pos_ > start &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      if (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')
        is_double = true;
      ++pos_;
    }
    std::string num(text_.substr(start, pos_ - start));
    if (is_double)
      return Expr::Const(Value::Double(std::strtod(num.c_str(), nullptr)));
    return Expr::Const(Value::Int64(std::strtoll(num.c_str(), nullptr, 10)));
  }

  Result<ExprPtr> ParseIdentifier() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '.')) {
      ++pos_;
    }
    std::string name(text_.substr(start, pos_ - start));
    std::string lower = name;
    for (char& ch : lower) ch = static_cast<char>(std::tolower(ch));
    if (lower == "true") return Expr::Const(Value::Bool(true));
    if (lower == "false") return Expr::Const(Value::Bool(false));
    if (lower == "null") return Expr::Const(Value::Null());
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '(') {
      ++pos_;
      std::vector<ExprPtr> args;
      SkipSpace();
      if (!Accept(")")) {
        for (;;) {
          PIER_ASSIGN_OR_RETURN(ExprPtr a, ParseOr());
          args.push_back(std::move(a));
          SkipSpace();
          if (Accept(")")) break;
          if (!Accept(","))
            return Status::InvalidArgument("expected ',' or ')' in call");
        }
      }
      return Expr::Func(std::move(lower), std::move(args));
    }
    return Expr::Column(std::move(name));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Accept(std::string_view tok) {
    if (text_.substr(pos_, tok.size()) == tok) {
      pos_ += tok.size();
      return true;
    }
    return false;
  }

  /// Accept a keyword: must match case-insensitively and end at a word
  /// boundary (so "order" is not the keyword "or").
  bool AcceptWord(std::string_view word) {
    SkipSpace();
    if (pos_ + word.size() > text_.size()) return false;
    for (size_t i = 0; i < word.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(text_[pos_ + i])) != word[i])
        return false;
    }
    size_t end = pos_ + word.size();
    if (end < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[end])) ||
         text_[end] == '_')) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<ExprPtr> ParseExpr(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace pier
