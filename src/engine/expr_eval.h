#ifndef DYNVIEW_ENGINE_EXPR_EVAL_H_
#define DYNVIEW_ENGINE_EXPR_EVAL_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "relational/table.h"
#include "sql/ast.h"

namespace dynview {

/// Maps names appearing in expressions to column indexes of a working row.
/// A working row is the concatenation of the tuples bound by the tuple
/// variables joined so far, plus any derived columns.
class ColumnBindings {
 public:
  /// Registers `tuple_var.attr` → `index`.
  void AddQualified(const std::string& tuple_var, const std::string& attr,
                    int index);

  /// Registers a named binding (domain variable or computed column).
  void AddNamed(const std::string& name, int index);

  /// Looks up `tuple_var.attr`; -1 if absent.
  int LookupQualified(const std::string& tuple_var,
                      const std::string& attr) const;

  /// Looks up a bare name: named bindings first, then unique unqualified
  /// attribute. Returns -1 if absent, -2 if ambiguous.
  int LookupBare(const std::string& name) const;

  /// Merges `other` with all indexes shifted by `offset` (for joins).
  void MergeShifted(const ColumnBindings& other, int offset);

  size_t num_columns() const { return width_; }
  void set_num_columns(size_t w) { width_ = w; }

 private:
  std::unordered_map<std::string, int> qualified_;  // "t.attr" lowercased.
  std::unordered_map<std::string, int> named_;      // lowercased.
  std::unordered_map<std::string, std::vector<int>> bare_;  // attr lowercased.
  size_t width_ = 0;
};

/// Scalar semantics of the compiled flat-op evaluator (engine/expr_compile.h)
/// — one definition of each operation, including its error messages and
/// NULL behavior. The test tree's reference tree walk calls the same
/// functions, so the expression differential compares evaluation structure
/// (order, short-circuit, name resolution), not duplicated arithmetic.
Result<Value> EvalArithOp(BinaryOp op, const Value& l, const Value& r);
Result<TriBool> EvalCompareOp(BinaryOp op, const Value& l, const Value& r);
/// The verdict of comparison `op` on the three-way result `cmp` of two
/// comparable, non-NULL operands: EvalCompareOp's second half, shared with
/// the compiled evaluator's typed compare.
Result<TriBool> CompareVerdict(BinaryOp op, int cmp);
Result<TriBool> EvalLikeOp(const Value& l, const Value& r);
Result<TriBool> EvalContainsOp(const Value& l, const Value& r);
Result<TriBool> EvalHasWordOp(const Value& l, const Value& r);

/// True → Bool(true), False → Bool(false), Unknown → NULL (the SQL
/// embedding of three-valued logic into the value domain).
Value TriBoolToValue(TriBool t);

/// True if every column reference in `expr` resolves under `bindings` —
/// i.e. the expression can be evaluated against this working set. Used for
/// predicate pushdown and hash-join key discovery.
bool CanEvaluate(const Expr& expr, const ColumnBindings& bindings);

}  // namespace dynview

#endif  // DYNVIEW_ENGINE_EXPR_EVAL_H_
