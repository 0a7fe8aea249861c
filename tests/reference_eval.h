#ifndef DYNVIEW_TESTS_REFERENCE_EVAL_H_
#define DYNVIEW_TESTS_REFERENCE_EVAL_H_

#include <string>

#include "common/result.h"
#include "engine/expr_eval.h"
#include "relational/table.h"
#include "sql/ast.h"

namespace dynview {

/// The reference tree walk the compiled evaluator (engine/expr_compile.h) is
/// checked against. It recurses over the AST, resolving names per row, and
/// raises each error at the node that causes it — the semantics every
/// compiled program must reproduce byte for byte, statuses included. Test
/// only: the engine evaluates expressions exclusively through programs.

/// Evaluates `expr` over `row` using `bindings`. Aggregates are rejected
/// (the grouping operator computes them).
Result<Value> EvaluateExpr(const Expr& expr, const Row& row,
                           const ColumnBindings& bindings);

/// Evaluates `expr` as a SQL predicate with three-valued logic. Value-typed
/// results are coerced: NULL ⇒ Unknown, BOOL ⇒ itself; other types error.
Result<TriBool> EvaluatePredicate(const Expr& expr, const Row& row,
                                  const ColumnBindings& bindings);

/// One evaluation outcome as the differential tests compare it: the value's
/// kind and rendering, or the full status.
std::string RenderOutcome(const Result<Value>& r);
std::string RenderOutcome(const Result<TriBool>& r);

}  // namespace dynview

#endif  // DYNVIEW_TESTS_REFERENCE_EVAL_H_
