#ifndef DYNVIEW_ENGINE_EXPR_COMPILE_H_
#define DYNVIEW_ENGINE_EXPR_COMPILE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "engine/expr_eval.h"
#include "relational/table.h"
#include "sql/ast.h"

namespace dynview {

class MetricsRegistry;

/// One op of a flattened expression program. Programs are postfix: operand
/// ops push onto an evaluation stack, operator ops pop their inputs and push
/// the result. Column references are resolved to row slots at compile time
/// (`arg` = column index), so per-row evaluation does no name lookup and no
/// tree walk — just a linear scan over a contiguous array.
enum class ExprOpCode : uint8_t {
  kPushLiteral,  // push literals[arg]
  kPushSlot,     // push row[arg]             (slot-bound value holder)
  kArith,        // pop r, l; push EvalArithOp(bop, l, r)
  kCompare,      // pop r, l; push tri(EvalCompareOp(bop, l, r))
  kLike,         // pop r, l; push tri(EvalLikeOp(l, r))
  kContains,     // pop r, l; push tri(EvalContainsOp(l, r))
  kHasWord,      // pop r, l; push tri(EvalHasWordOp(l, r))
  kIsNull,       // pop v; push Bool(v.is_null() xor negated-in-arg)
  kNot,          // pop tri; push tri(TriNot)
  kAnd,          // pop r, l; push tri(TriAnd)
  kOr,           // pop r, l; push tri(TriOr)
  kJumpIfFalse,  // if tri(top) == False, jump to op index `arg` (keep top)
  kJumpIfTrue,   // if tri(top) == True, jump to op index `arg` (keep top)
  kCoerceBool,   // pop v; push v if NULL/BOOL else "predicate did not
                 // evaluate to a boolean" (the predicate coercion rule)
  kFail,         // return failures[arg]: a name that does not resolve, an
                 // unbound parameter, `*`, or an aggregate outside grouping
};

struct ExprOp {
  ExprOpCode code = ExprOpCode::kPushLiteral;
  BinaryOp bop = BinaryOp::kEq;
  /// kPushLiteral: literal pool index. kPushSlot: row slot. kJump*: target
  /// op index. kIsNull: 1 when negated (IS NOT NULL). kFail: failure index.
  int32_t arg = 0;
};

/// A predicate/projection tree flattened into a contiguous op array with all
/// names resolved to row slots. Immutable after Compile, so one program is
/// safely shared by every morsel worker and every grounding of a fan-out;
/// evaluation scratch lives in a thread-local pmr arena, not in the program.
///
/// Three-valued logic is encoded in the value domain (True/False → BOOL,
/// Unknown → NULL, the same bijection TriBoolToValue uses), and AND/OR
/// short-circuit through jump ops: AND stops on False, OR on True —
/// skipping the right operand's *errors* too, which is part of the
/// evaluation contract.
///
/// Compilation is total. A node that cannot produce a value (see kFail)
/// compiles to an op holding the exact Status it raises, emitted where the
/// node sits: the error stays lazy — it fires only on a real row, only
/// when evaluation reaches it, and never on an empty input.
///
/// Two program shapes dominate scans and get fast forms that skip the stack
/// loop: a bare slot (the value is the row's slot) and a comparison whose
/// operands are each a slot or a literal. The comparison orders INT,
/// DOUBLE and DATE pairs of the same kind directly (its verdict is
/// EvalCompareOp's CompareVerdict) and hands every other kind pair to
/// EvalCompareOp, so NULLs and TypeErrors stay exact.
class CompiledExpr {
 public:
  /// Flattens `e` for rows shaped by `bindings`. Never returns nullptr.
  ///
  /// `agg_base` >= 0 compiles for the grouping operator: the k-th aggregate
  /// node in CollectAggregates order reads row slot `agg_base + k`, where
  /// the operator stores that aggregate's value over the group. With -1 an
  /// aggregate raises "aggregate evaluated outside a grouping context".
  static std::shared_ptr<const CompiledExpr> Compile(
      const Expr& e, const ColumnBindings& bindings, bool as_predicate,
      int agg_base = -1);

  /// Evaluates the program over `row` in value context.
  Result<Value> EvalValue(const Row& row) const;

  /// Evaluates the program over `row` as a three-valued predicate.
  Result<TriBool> EvalPredicate(const Row& row) const;

  size_t num_ops() const { return ops_.size(); }

  /// The row slot a bare column/variable reference reads, else -1.
  int bare_slot() const { return bare_slot_; }

 private:
  CompiledExpr() = default;

  /// Operands of the comparison fast form: a row slot (`slot` true) or a
  /// literal pool index.
  struct Operand {
    bool slot = false;
    int32_t index = 0;
  };

  Result<Value> Run(const Row& row) const;
  const Value& Fetch(const Operand& o, const Row& row) const {
    return o.slot ? row[o.index] : literals_[o.index];
  }
  Result<TriBool> RunCompare(const Row& row) const;

  std::vector<ExprOp> ops_;
  std::vector<Value> literals_;
  std::vector<Status> failures_;
  size_t max_stack_ = 0;
  int bare_slot_ = -1;
  bool is_compare_ = false;  // ops_ is {operand, operand, kCompare}.
  BinaryOp compare_op_ = BinaryOp::kEq;
  Operand lhs_, rhs_;
};

/// Appends the aggregate nodes of `e` left to right, not descending into an
/// aggregate's argument — the slot order CompiledExpr::Compile assigns.
void CollectAggregates(const Expr& e, std::vector<const Expr*>* out);

/// Memoizes compiled programs by (predicate-ness, expression rendering,
/// resolved slot signature) so plan builds — a cold answer, a stale plan
/// rebuilt after a commit, the optimizer's operators — compile every
/// distinct shape once. A built plan holds its program handles, so runs
/// never look programs up.
///
/// Thread-safe; lookups happen per operator setup, never per row. Bounded:
/// at `max_entries` the map is dropped wholesale (programs still referenced
/// by running operators stay alive through their shared_ptr).
class ExprProgramCache {
 public:
  explicit ExprProgramCache(size_t max_entries = 512)
      : max_entries_(max_entries) {}

  /// The program for (e, bindings, agg_base), compiling on miss. Bumps
  /// `compile.exprs_flattened` on `metrics` (when given) for every fresh
  /// compile.
  std::shared_ptr<const CompiledExpr> GetOrCompile(
      const Expr& e, const ColumnBindings& bindings, bool as_predicate,
      MetricsRegistry* metrics, int agg_base = -1);

  size_t size() const;

 private:
  const size_t max_entries_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const CompiledExpr>> map_;
};

}  // namespace dynview

#endif  // DYNVIEW_ENGINE_EXPR_COMPILE_H_
