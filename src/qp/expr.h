// Scalar expressions over self-describing tuples.
//
// UFL plans and the SQL front end both compile predicates and computed
// columns into this little expression tree. Evaluation follows the paper's
// best-effort policy (§3.3.4): any type mismatch, missing column, or bad
// arithmetic yields an error Status, and the operator evaluating the
// expression discards the tuple rather than failing the query.
//
// Expressions are immutable and shared (ExprPtr); they serialize into opgraph
// parameters for dissemination.

#ifndef PIER_QP_EXPR_H_
#define PIER_QP_EXPR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "data/tuple.h"
#include "data/value.h"
#include "util/status.h"

namespace pier {

class TupleBatch;

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class ExprKind : uint8_t {
  kConst = 1,
  kColumn = 2,
  kCmp = 3,
  kLogic = 4,
  kArith = 5,
  kFunc = 6,
};

enum class CmpOp : uint8_t { kEq = 1, kNe, kLt, kLe, kGt, kGe };
enum class LogicOp : uint8_t { kAnd = 1, kOr, kNot };
enum class ArithOp : uint8_t { kAdd = 1, kSub, kMul, kDiv, kMod };

class Expr {
 public:
  // --- Constructors -----------------------------------------------------------

  static ExprPtr Const(Value v);
  static ExprPtr Column(std::string name);
  static ExprPtr Cmp(CmpOp op, ExprPtr l, ExprPtr r);
  static ExprPtr And(ExprPtr l, ExprPtr r);
  static ExprPtr Or(ExprPtr l, ExprPtr r);
  static ExprPtr Not(ExprPtr e);
  static ExprPtr Arith(ArithOp op, ExprPtr l, ExprPtr r);
  /// Built-in functions: length(s), lower(s), upper(s), abs(x),
  /// contains(s, sub), startswith(s, prefix).
  static ExprPtr Func(std::string name, std::vector<ExprPtr> args);

  // --- Evaluation ---------------------------------------------------------------

  /// Evaluate against `t`. Missing columns and type mismatches are errors.
  Result<Value> Eval(const Tuple& t) const;

  /// Evaluate as a predicate: true/false, or error (caller discards tuple).
  Result<bool> EvalPredicate(const Tuple& t) const;

  /// Evaluate against row `row` of a batch without materializing a Tuple
  /// (the vectorized operators' inner loop). Semantics are identical to
  /// Eval/EvalPredicate on the materialized row.
  Result<Value> EvalRow(const TupleBatch& b, size_t row) const;
  Result<bool> EvalPredicateRow(const TupleBatch& b, size_t row) const;

  // --- Introspection (used by the naive optimizer) ------------------------------

  ExprKind kind() const { return kind_; }
  const Value& const_value() const { return value_; }
  const std::string& column_name() const { return name_; }
  CmpOp cmp_op() const { return cmp_op_; }
  LogicOp logic_op() const { return logic_op_; }
  ArithOp arith_op() const { return arith_op_; }
  const std::string& func_name() const { return name_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  /// If this expression (possibly under ANDs) constrains `col` to a constant
  /// via equality, return that constant. Drives index-based dissemination.
  bool ExtractEqualityConstant(std::string_view col, Value* out) const;

  /// All column names referenced anywhere in the tree.
  void CollectColumns(std::vector<std::string>* out) const;

  /// Parseable text form ("(a >= 3) and contains(name, 'x')").
  std::string ToString() const;

  // --- Wire format ---------------------------------------------------------------

  void EncodeTo(WireWriter* w) const;
  std::string Encode() const;
  static Result<ExprPtr> DecodeFrom(WireReader* r);
  static Result<ExprPtr> Decode(std::string_view wire);

 private:
  Expr() = default;

  /// One evaluation context: exactly one of `t` / `b` is set. Keeping a
  /// single recursive evaluator (branching only at kColumn) guarantees the
  /// batch path computes exactly what the tuple path computes.
  struct RowRef {
    const Tuple* t;
    const TupleBatch* b;
    size_t row;
  };
  Result<Value> EvalRef(const RowRef& ref) const;

  ExprKind kind_ = ExprKind::kConst;
  Value value_;                     // kConst
  std::string name_;                // kColumn / kFunc
  CmpOp cmp_op_ = CmpOp::kEq;       // kCmp
  LogicOp logic_op_ = LogicOp::kAnd;  // kLogic
  ArithOp arith_op_ = ArithOp::kAdd;  // kArith
  std::vector<ExprPtr> children_;
};

/// Parse the textual expression grammar used by UFL parameters and SQL WHERE
/// clauses. Precedence (loosest first): or, and, not, comparison, additive,
/// multiplicative, unary minus, primary. Literals: integers, doubles,
/// 'single-quoted strings', true/false/null. Identifiers may be dotted
/// (table.column) and are treated as column references; a trailing "(...)"
/// makes a function call.
Result<ExprPtr> ParseExpr(std::string_view text);

}  // namespace pier

#endif  // PIER_QP_EXPR_H_
