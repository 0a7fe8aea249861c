#include "reference_eval.h"

namespace dynview {

Result<Value> EvaluateExpr(const Expr& expr, const Row& row,
                           const ColumnBindings& bindings) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      if (expr.param_index >= 0) {
        return Status::EvalError("unbound parameter ?" +
                                 std::to_string(expr.param_index + 1));
      }
      return expr.literal;
    case ExprKind::kVarRef: {
      int idx = bindings.LookupBare(expr.var_name);
      if (idx == -2) {
        return Status::BindError("ambiguous column '" + expr.var_name + "'");
      }
      if (idx < 0) {
        return Status::BindError("unresolved name '" + expr.var_name + "'");
      }
      return row[idx];
    }
    case ExprKind::kColumnRef: {
      if (expr.column.is_variable) {
        return Status::EvalError("attribute variable '" + expr.column.text +
                                 "' not instantiated before evaluation");
      }
      int idx = bindings.LookupQualified(expr.qualifier, expr.column.text);
      if (idx < 0) {
        return Status::BindError("unresolved column '" + expr.qualifier + "." +
                                 expr.column.text + "'");
      }
      return row[idx];
    }
    case ExprKind::kArith: {
      DV_ASSIGN_OR_RETURN(Value l, EvaluateExpr(*expr.left, row, bindings));
      DV_ASSIGN_OR_RETURN(Value r, EvaluateExpr(*expr.right, row, bindings));
      return EvalArithOp(expr.op, l, r);
    }
    case ExprKind::kCompare:
    case ExprKind::kLogic:
    case ExprKind::kNot:
    case ExprKind::kLike:
    case ExprKind::kContains:
    case ExprKind::kHasWord:
    case ExprKind::kIsNull: {
      DV_ASSIGN_OR_RETURN(TriBool t, EvaluatePredicate(expr, row, bindings));
      return TriBoolToValue(t);
    }
    case ExprKind::kAgg:
      return Status::EvalError(
          "aggregate evaluated outside a grouping context");
    case ExprKind::kStar:
      return Status::EvalError("'*' is only valid in a select list");
  }
  return Status::Internal("bad expression kind");
}

Result<TriBool> EvaluatePredicate(const Expr& expr, const Row& row,
                                  const ColumnBindings& bindings) {
  switch (expr.kind) {
    case ExprKind::kCompare: {
      DV_ASSIGN_OR_RETURN(Value l, EvaluateExpr(*expr.left, row, bindings));
      DV_ASSIGN_OR_RETURN(Value r, EvaluateExpr(*expr.right, row, bindings));
      return EvalCompareOp(expr.op, l, r);
    }
    case ExprKind::kLogic: {
      DV_ASSIGN_OR_RETURN(TriBool l,
                          EvaluatePredicate(*expr.left, row, bindings));
      // Short-circuit where three-valued logic allows it.
      if (expr.op == BinaryOp::kAnd && l == TriBool::kFalse) {
        return TriBool::kFalse;
      }
      if (expr.op == BinaryOp::kOr && l == TriBool::kTrue) {
        return TriBool::kTrue;
      }
      DV_ASSIGN_OR_RETURN(TriBool r,
                          EvaluatePredicate(*expr.right, row, bindings));
      return expr.op == BinaryOp::kAnd ? TriAnd(l, r) : TriOr(l, r);
    }
    case ExprKind::kNot: {
      DV_ASSIGN_OR_RETURN(TriBool v,
                          EvaluatePredicate(*expr.left, row, bindings));
      return TriNot(v);
    }
    case ExprKind::kLike: {
      DV_ASSIGN_OR_RETURN(Value l, EvaluateExpr(*expr.left, row, bindings));
      DV_ASSIGN_OR_RETURN(Value r, EvaluateExpr(*expr.right, row, bindings));
      return EvalLikeOp(l, r);
    }
    case ExprKind::kContains: {
      DV_ASSIGN_OR_RETURN(Value l, EvaluateExpr(*expr.left, row, bindings));
      DV_ASSIGN_OR_RETURN(Value r, EvaluateExpr(*expr.right, row, bindings));
      return EvalContainsOp(l, r);
    }
    case ExprKind::kHasWord: {
      DV_ASSIGN_OR_RETURN(Value l, EvaluateExpr(*expr.left, row, bindings));
      DV_ASSIGN_OR_RETURN(Value r, EvaluateExpr(*expr.right, row, bindings));
      return EvalHasWordOp(l, r);
    }
    case ExprKind::kIsNull: {
      DV_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*expr.left, row, bindings));
      bool null = v.is_null();
      if (expr.negated) null = !null;
      return null ? TriBool::kTrue : TriBool::kFalse;
    }
    default: {
      DV_ASSIGN_OR_RETURN(Value v, EvaluateExpr(expr, row, bindings));
      if (v.is_null()) return TriBool::kUnknown;
      if (v.kind() == TypeKind::kBool) {
        return v.as_bool() ? TriBool::kTrue : TriBool::kFalse;
      }
      return Status::TypeError("predicate did not evaluate to a boolean");
    }
  }
}

std::string RenderOutcome(const Result<Value>& r) {
  return r.ok() ? std::string(TypeKindName(r.value().kind())) + " " +
                      r.value().ToString()
                : r.status().ToString();
}

std::string RenderOutcome(const Result<TriBool>& r) {
  return r.ok() ? TriBoolToValue(r.value()).ToString() : r.status().ToString();
}

}  // namespace dynview
