#include "qp/expr.h"

#include "data/tuple_batch.h"

#include <cmath>

namespace pier {

namespace {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd: return "+";
    case ArithOp::kSub: return "-";
    case ArithOp::kMul: return "*";
    case ArithOp::kDiv: return "/";
    case ArithOp::kMod: return "%";
  }
  return "?";
}

}  // namespace

ExprPtr Expr::Const(Value v) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kConst;
  e->value_ = std::move(v);
  return e;
}

ExprPtr Expr::Column(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kColumn;
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Cmp(CmpOp op, ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kCmp;
  e->cmp_op_ = op;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::And(ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLogic;
  e->logic_op_ = LogicOp::kAnd;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Or(ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLogic;
  e->logic_op_ = LogicOp::kOr;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Not(ExprPtr x) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kLogic;
  e->logic_op_ = LogicOp::kNot;
  e->children_ = {std::move(x)};
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr l, ExprPtr r) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kArith;
  e->arith_op_ = op;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Func(std::string name, std::vector<ExprPtr> args) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = ExprKind::kFunc;
  e->name_ = std::move(name);
  e->children_ = std::move(args);
  return e;
}

Result<Value> Expr::EvalRef(const RowRef& ref) const {
  switch (kind_) {
    case ExprKind::kConst:
      return value_;
    case ExprKind::kColumn: {
      if (ref.t != nullptr) {
        const Value* v = ref.t->Get(name_);
        if (v == nullptr)
          return Status::NotFound("no column '" + name_ + "' in " +
                                  ref.t->table());
        return *v;
      }
      Value v;
      if (!ref.b->RowGet(name_, ref.row, &v))
        return Status::NotFound("no column '" + name_ + "' in " +
                                ref.b->schema()->table);
      return v;
    }
    case ExprKind::kCmp: {
      PIER_ASSIGN_OR_RETURN(Value l, children_[0]->EvalRef(ref));
      PIER_ASSIGN_OR_RETURN(Value r, children_[1]->EvalRef(ref));
      PIER_ASSIGN_OR_RETURN(int c, Value::Compare(l, r));
      switch (cmp_op_) {
        case CmpOp::kEq: return Value::Bool(c == 0);
        case CmpOp::kNe: return Value::Bool(c != 0);
        case CmpOp::kLt: return Value::Bool(c < 0);
        case CmpOp::kLe: return Value::Bool(c <= 0);
        case CmpOp::kGt: return Value::Bool(c > 0);
        case CmpOp::kGe: return Value::Bool(c >= 0);
      }
      return Status::Internal("bad cmp op");
    }
    case ExprKind::kLogic: {
      if (logic_op_ == LogicOp::kNot) {
        PIER_ASSIGN_OR_RETURN(Value v, children_[0]->EvalRef(ref));
        PIER_ASSIGN_OR_RETURN(bool b, v.AsBool());
        return Value::Bool(!b);
      }
      PIER_ASSIGN_OR_RETURN(Value l, children_[0]->EvalRef(ref));
      PIER_ASSIGN_OR_RETURN(bool lb, l.AsBool());
      // Short circuit.
      if (logic_op_ == LogicOp::kAnd && !lb) return Value::Bool(false);
      if (logic_op_ == LogicOp::kOr && lb) return Value::Bool(true);
      PIER_ASSIGN_OR_RETURN(Value r, children_[1]->EvalRef(ref));
      PIER_ASSIGN_OR_RETURN(bool rb, r.AsBool());
      return Value::Bool(rb);
    }
    case ExprKind::kArith: {
      PIER_ASSIGN_OR_RETURN(Value l, children_[0]->EvalRef(ref));
      PIER_ASSIGN_OR_RETURN(Value r, children_[1]->EvalRef(ref));
      if (!l.is_numeric() || !r.is_numeric())
        return Status::Corruption("arithmetic on non-numeric value");
      if (l.type() == ValueType::kInt64 && r.type() == ValueType::kInt64) {
        int64_t a = l.int64_unchecked(), b = r.int64_unchecked();
        switch (arith_op_) {
          case ArithOp::kAdd: return Value::Int64(a + b);
          case ArithOp::kSub: return Value::Int64(a - b);
          case ArithOp::kMul: return Value::Int64(a * b);
          case ArithOp::kDiv:
            if (b == 0) return Status::Corruption("division by zero");
            return Value::Int64(a / b);
          case ArithOp::kMod:
            if (b == 0) return Status::Corruption("mod by zero");
            return Value::Int64(a % b);
        }
      }
      double a = *l.AsDouble(), b = *r.AsDouble();
      switch (arith_op_) {
        case ArithOp::kAdd: return Value::Double(a + b);
        case ArithOp::kSub: return Value::Double(a - b);
        case ArithOp::kMul: return Value::Double(a * b);
        case ArithOp::kDiv:
          if (b == 0) return Status::Corruption("division by zero");
          return Value::Double(a / b);
        case ArithOp::kMod:
          return Status::Corruption("mod on doubles");
      }
      return Status::Internal("bad arith op");
    }
    case ExprKind::kFunc: {
      std::vector<Value> args;
      args.reserve(children_.size());
      for (const ExprPtr& c : children_) {
        PIER_ASSIGN_OR_RETURN(Value v, c->EvalRef(ref));
        args.push_back(std::move(v));
      }
      if (name_ == "length" && args.size() == 1) {
        PIER_ASSIGN_OR_RETURN(std::string_view s, args[0].AsString());
        return Value::Int64(static_cast<int64_t>(s.size()));
      }
      if ((name_ == "lower" || name_ == "upper") && args.size() == 1) {
        PIER_ASSIGN_OR_RETURN(std::string_view s, args[0].AsString());
        std::string out(s);
        for (char& c : out)
          c = name_ == "lower" ? static_cast<char>(std::tolower(c))
                               : static_cast<char>(std::toupper(c));
        return Value::String(std::move(out));
      }
      if (name_ == "abs" && args.size() == 1) {
        if (args[0].type() == ValueType::kInt64) {
          int64_t v = args[0].int64_unchecked();
          return Value::Int64(v < 0 ? -v : v);
        }
        PIER_ASSIGN_OR_RETURN(double d, args[0].AsDouble());
        return Value::Double(std::fabs(d));
      }
      if (name_ == "contains" && args.size() == 2) {
        PIER_ASSIGN_OR_RETURN(std::string_view s, args[0].AsString());
        PIER_ASSIGN_OR_RETURN(std::string_view sub, args[1].AsString());
        return Value::Bool(s.find(sub) != std::string_view::npos);
      }
      if (name_ == "startswith" && args.size() == 2) {
        PIER_ASSIGN_OR_RETURN(std::string_view s, args[0].AsString());
        PIER_ASSIGN_OR_RETURN(std::string_view p, args[1].AsString());
        return Value::Bool(s.substr(0, p.size()) == p);
      }
      return Status::NotSupported("unknown function '" + name_ + "' with " +
                                  std::to_string(args.size()) + " args");
    }
  }
  return Status::Internal("bad expr kind");
}

Result<Value> Expr::Eval(const Tuple& t) const {
  return EvalRef(RowRef{&t, nullptr, 0});
}

Result<bool> Expr::EvalPredicate(const Tuple& t) const {
  PIER_ASSIGN_OR_RETURN(Value v, Eval(t));
  return v.AsBool();
}

Result<Value> Expr::EvalRow(const TupleBatch& b, size_t row) const {
  return EvalRef(RowRef{nullptr, &b, row});
}

Result<bool> Expr::EvalPredicateRow(const TupleBatch& b, size_t row) const {
  PIER_ASSIGN_OR_RETURN(Value v, EvalRow(b, row));
  return v.AsBool();
}

bool Expr::ExtractEqualityConstant(std::string_view col, Value* out) const {
  if (kind_ == ExprKind::kLogic && logic_op_ == LogicOp::kAnd) {
    return children_[0]->ExtractEqualityConstant(col, out) ||
           children_[1]->ExtractEqualityConstant(col, out);
  }
  if (kind_ == ExprKind::kCmp && cmp_op_ == CmpOp::kEq) {
    const Expr* l = children_[0].get();
    const Expr* r = children_[1].get();
    if (l->kind_ == ExprKind::kColumn && l->name_ == col &&
        r->kind_ == ExprKind::kConst) {
      *out = r->value_;
      return true;
    }
    if (r->kind_ == ExprKind::kColumn && r->name_ == col &&
        l->kind_ == ExprKind::kConst) {
      *out = l->value_;
      return true;
    }
  }
  return false;
}

void Expr::CollectColumns(std::vector<std::string>* out) const {
  if (kind_ == ExprKind::kColumn) {
    out->push_back(name_);
    return;
  }
  for (const ExprPtr& c : children_) c->CollectColumns(out);
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kConst:
      return value_.ToString();
    case ExprKind::kColumn:
      return name_;
    case ExprKind::kCmp:
      return "(" + children_[0]->ToString() + " " + CmpOpName(cmp_op_) + " " +
             children_[1]->ToString() + ")";
    case ExprKind::kLogic:
      if (logic_op_ == LogicOp::kNot)
        return "(not " + children_[0]->ToString() + ")";
      return "(" + children_[0]->ToString() +
             (logic_op_ == LogicOp::kAnd ? " and " : " or ") +
             children_[1]->ToString() + ")";
    case ExprKind::kArith:
      return "(" + children_[0]->ToString() + " " + ArithOpName(arith_op_) +
             " " + children_[1]->ToString() + ")";
    case ExprKind::kFunc: {
      std::string s = name_ + "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) s += ", ";
        s += children_[i]->ToString();
      }
      return s + ")";
    }
  }
  return "?";
}

void Expr::EncodeTo(WireWriter* w) const {
  w->PutU8(static_cast<uint8_t>(kind_));
  switch (kind_) {
    case ExprKind::kConst:
      value_.EncodeTo(w);
      break;
    case ExprKind::kColumn:
      w->PutBytes(name_);
      break;
    case ExprKind::kCmp:
      w->PutU8(static_cast<uint8_t>(cmp_op_));
      break;
    case ExprKind::kLogic:
      w->PutU8(static_cast<uint8_t>(logic_op_));
      break;
    case ExprKind::kArith:
      w->PutU8(static_cast<uint8_t>(arith_op_));
      break;
    case ExprKind::kFunc:
      w->PutBytes(name_);
      break;
  }
  w->PutVarint(children_.size());
  for (const ExprPtr& c : children_) c->EncodeTo(w);
}

std::string Expr::Encode() const {
  WireWriter w;
  EncodeTo(&w);
  return std::move(w).data();
}

Result<ExprPtr> Expr::DecodeFrom(WireReader* r) {
  uint8_t kind_tag;
  PIER_RETURN_IF_ERROR(r->GetU8(&kind_tag));
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = static_cast<ExprKind>(kind_tag);
  switch (e->kind_) {
    case ExprKind::kConst: {
      PIER_ASSIGN_OR_RETURN(Value v, Value::DecodeFrom(r));
      e->value_ = std::move(v);
      break;
    }
    case ExprKind::kColumn:
      PIER_RETURN_IF_ERROR(r->GetBytes(&e->name_));
      break;
    case ExprKind::kCmp: {
      uint8_t op;
      PIER_RETURN_IF_ERROR(r->GetU8(&op));
      e->cmp_op_ = static_cast<CmpOp>(op);
      break;
    }
    case ExprKind::kLogic: {
      uint8_t op;
      PIER_RETURN_IF_ERROR(r->GetU8(&op));
      e->logic_op_ = static_cast<LogicOp>(op);
      break;
    }
    case ExprKind::kArith: {
      uint8_t op;
      PIER_RETURN_IF_ERROR(r->GetU8(&op));
      e->arith_op_ = static_cast<ArithOp>(op);
      break;
    }
    case ExprKind::kFunc:
      PIER_RETURN_IF_ERROR(r->GetBytes(&e->name_));
      break;
    default:
      return Status::Corruption("bad expr kind tag");
  }
  uint64_t n;
  PIER_RETURN_IF_ERROR(r->GetVarint(&n));
  if (n > 1000) return Status::Corruption("absurd expr arity");
  for (uint64_t i = 0; i < n; ++i) {
    PIER_ASSIGN_OR_RETURN(ExprPtr c, DecodeFrom(r));
    e->children_.push_back(std::move(c));
  }
  // Arity checks keep Eval simple.
  size_t want = 0;
  switch (e->kind_) {
    case ExprKind::kCmp:
    case ExprKind::kArith:
      want = 2;
      break;
    case ExprKind::kLogic:
      want = e->logic_op_ == LogicOp::kNot ? 1 : 2;
      break;
    default:
      want = e->children_.size();
  }
  if (e->children_.size() != want)
    return Status::Corruption("bad expr arity");
  return ExprPtr(e);
}

Result<ExprPtr> Expr::Decode(std::string_view wire) {
  WireReader r(wire);
  PIER_ASSIGN_OR_RETURN(ExprPtr e, DecodeFrom(&r));
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after expr");
  return e;
}

}  // namespace pier
