#include "engine/expr_eval.h"

#include "common/str_util.h"

namespace dynview {

void ColumnBindings::AddQualified(const std::string& tuple_var,
                                  const std::string& attr, int index) {
  qualified_[ToLower(tuple_var) + "." + ToLower(attr)] = index;
  bare_[ToLower(attr)].push_back(index);
  if (static_cast<size_t>(index) >= width_) width_ = index + 1;
}

void ColumnBindings::AddNamed(const std::string& name, int index) {
  named_[ToLower(name)] = index;
  if (static_cast<size_t>(index) >= width_) width_ = index + 1;
}

int ColumnBindings::LookupQualified(const std::string& tuple_var,
                                    const std::string& attr) const {
  auto it = qualified_.find(ToLower(tuple_var) + "." + ToLower(attr));
  if (it == qualified_.end()) return -1;
  return it->second;
}

int ColumnBindings::LookupBare(const std::string& name) const {
  auto n = named_.find(ToLower(name));
  if (n != named_.end()) return n->second;
  auto b = bare_.find(ToLower(name));
  if (b == bare_.end()) return -1;
  if (b->second.size() > 1) return -2;
  return b->second[0];
}

void ColumnBindings::MergeShifted(const ColumnBindings& other, int offset) {
  for (const auto& [k, v] : other.qualified_) qualified_[k] = v + offset;
  for (const auto& [k, v] : other.named_) named_[k] = v + offset;
  for (const auto& [k, vs] : other.bare_) {
    auto& dst = bare_[k];
    for (int v : vs) dst.push_back(v + offset);
  }
  width_ = std::max(width_, other.width_ + offset);
}

Result<Value> EvalArithOp(BinaryOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  // Date arithmetic: date ± int, date - date.
  if (l.kind() == TypeKind::kDate && r.kind() == TypeKind::kInt) {
    if (op == BinaryOp::kAdd) {
      return Value::MakeDate(l.as_date().AddDays(static_cast<int32_t>(r.as_int())));
    }
    if (op == BinaryOp::kSub) {
      return Value::MakeDate(l.as_date().AddDays(-static_cast<int32_t>(r.as_int())));
    }
    return Status::TypeError("unsupported DATE arithmetic");
  }
  if (l.kind() == TypeKind::kInt && r.kind() == TypeKind::kDate &&
      op == BinaryOp::kAdd) {
    return Value::MakeDate(r.as_date().AddDays(static_cast<int32_t>(l.as_int())));
  }
  if (l.kind() == TypeKind::kDate && r.kind() == TypeKind::kDate &&
      op == BinaryOp::kSub) {
    return Value::Int(l.as_date().days_since_epoch() -
                      r.as_date().days_since_epoch());
  }
  // String concatenation via '+': convenient for workload generators.
  if (l.kind() == TypeKind::kString && r.kind() == TypeKind::kString &&
      op == BinaryOp::kAdd) {
    return Value::String(l.as_string() + r.as_string());
  }
  if (!l.is_numeric() || !r.is_numeric()) {
    return Status::TypeError(std::string("arithmetic on ") +
                             TypeKindName(l.kind()) + " and " +
                             TypeKindName(r.kind()));
  }
  if (l.kind() == TypeKind::kInt && r.kind() == TypeKind::kInt) {
    int64_t a = l.as_int(), b = r.as_int();
    switch (op) {
      case BinaryOp::kAdd: return Value::Int(a + b);
      case BinaryOp::kSub: return Value::Int(a - b);
      case BinaryOp::kMul: return Value::Int(a * b);
      case BinaryOp::kDiv:
        if (b == 0) return Status::EvalError("integer division by zero");
        return Value::Int(a / b);
      default:
        return Status::Internal("bad arith op");
    }
  }
  double a = l.NumericAsDouble(), b = r.NumericAsDouble();
  switch (op) {
    case BinaryOp::kAdd: return Value::Double(a + b);
    case BinaryOp::kSub: return Value::Double(a - b);
    case BinaryOp::kMul: return Value::Double(a * b);
    case BinaryOp::kDiv:
      if (b == 0.0) return Status::EvalError("division by zero");
      return Value::Double(a / b);
    default:
      return Status::Internal("bad arith op");
  }
}

Result<TriBool> EvalCompareOp(BinaryOp op, const Value& l, const Value& r) {
  int cmp = 0;
  DV_ASSIGN_OR_RETURN(TriBool known, Value::Compare(l, r, &cmp));
  if (known == TriBool::kUnknown) return TriBool::kUnknown;
  return CompareVerdict(op, cmp);
}

Result<TriBool> CompareVerdict(BinaryOp op, int cmp) {
  bool result = false;
  switch (op) {
    case BinaryOp::kEq: result = cmp == 0; break;
    case BinaryOp::kNotEq: result = cmp != 0; break;
    case BinaryOp::kLess: result = cmp < 0; break;
    case BinaryOp::kLessEq: result = cmp <= 0; break;
    case BinaryOp::kGreater: result = cmp > 0; break;
    case BinaryOp::kGreaterEq: result = cmp >= 0; break;
    default:
      return Status::Internal("bad comparison op");
  }
  return result ? TriBool::kTrue : TriBool::kFalse;
}

Result<TriBool> EvalLikeOp(const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return TriBool::kUnknown;
  if (l.kind() != TypeKind::kString || r.kind() != TypeKind::kString) {
    return Status::TypeError("LIKE requires string operands");
  }
  return LikeMatch(l.as_string(), r.as_string()) ? TriBool::kTrue
                                                 : TriBool::kFalse;
}

Result<TriBool> EvalContainsOp(const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return TriBool::kUnknown;
  if (r.kind() != TypeKind::kString) {
    return Status::TypeError("CONTAINS pattern must be a string");
  }
  // Any value can be searched; non-strings match on their label form
  // (the keyword-search semantics of Sec. 1.1.2).
  std::string text = l.kind() == TypeKind::kString ? l.as_string() : l.ToLabel();
  return ContainsIgnoreCase(text, r.as_string()) ? TriBool::kTrue
                                                 : TriBool::kFalse;
}

Result<TriBool> EvalHasWordOp(const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return TriBool::kUnknown;
  if (r.kind() != TypeKind::kString) {
    return Status::TypeError("HASWORD word must be a string");
  }
  std::vector<std::string> words = TokenizeWords(r.as_string());
  if (words.size() != 1) {
    return Status::TypeError("HASWORD takes a single word");
  }
  std::string text = l.kind() == TypeKind::kString ? l.as_string() : l.ToLabel();
  for (const std::string& w : TokenizeWords(text)) {
    if (w == words[0]) return TriBool::kTrue;
  }
  return TriBool::kFalse;
}

Value TriBoolToValue(TriBool t) {
  switch (t) {
    case TriBool::kTrue: return Value::Bool(true);
    case TriBool::kFalse: return Value::Bool(false);
    case TriBool::kUnknown: return Value::Null();
  }
  return Value::Null();
}

bool CanEvaluate(const Expr& expr, const ColumnBindings& bindings) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kVarRef:
      return bindings.LookupBare(expr.var_name) >= 0;
    case ExprKind::kColumnRef:
      return !expr.column.is_variable &&
             bindings.LookupQualified(expr.qualifier, expr.column.text) >= 0;
    case ExprKind::kStar:
      return false;
    default:
      if (expr.left && !CanEvaluate(*expr.left, bindings)) return false;
      if (expr.right && !CanEvaluate(*expr.right, bindings)) return false;
      return true;
  }
}

}  // namespace dynview
