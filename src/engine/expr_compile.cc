#include "engine/expr_compile.h"

#include <memory_resource>
#include <utility>

#include "observe/metrics.h"

namespace dynview {

namespace {

/// Accumulates ops while tracking the evaluation stack's high-water mark.
struct ProgramBuilder {
  std::vector<ExprOp> ops;
  std::vector<Value> literals;
  std::vector<Status> failures;
  int depth = 0;
  int max_depth = 0;
  /// First aggregate slot (-1 outside grouping) and the next one to assign.
  int agg_base = -1;
  int next_agg = 0;

  void Emit(ExprOpCode code, BinaryOp bop, int32_t arg, int stack_delta) {
    ops.push_back(ExprOp{code, bop, arg});
    depth += stack_delta;
    if (depth > max_depth) max_depth = depth;
  }

  /// A node that raises `st` when evaluation reaches it. Accounted as one
  /// pushed value so the enclosing ops' stack bookkeeping stays uniform.
  void Fail(Status st) {
    failures.push_back(std::move(st));
    Emit(ExprOpCode::kFail, BinaryOp::kEq,
         static_cast<int32_t>(failures.size() - 1), +1);
  }
};

void CompilePred(const Expr& e, const ColumnBindings& b, ProgramBuilder* out);

void CompileValue(const Expr& e, const ColumnBindings& b,
                  ProgramBuilder* out) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      if (e.param_index >= 0) {
        out->Fail(Status::EvalError("unbound parameter ?" +
                                    std::to_string(e.param_index + 1)));
        return;
      }
      out->literals.push_back(e.literal);
      out->Emit(ExprOpCode::kPushLiteral, BinaryOp::kEq,
                static_cast<int32_t>(out->literals.size() - 1), +1);
      return;
    case ExprKind::kVarRef: {
      int idx = b.LookupBare(e.var_name);
      if (idx == -2) {
        out->Fail(Status::BindError("ambiguous column '" + e.var_name + "'"));
      } else if (idx < 0) {
        out->Fail(Status::BindError("unresolved name '" + e.var_name + "'"));
      } else {
        out->Emit(ExprOpCode::kPushSlot, BinaryOp::kEq, idx, +1);
      }
      return;
    }
    case ExprKind::kColumnRef: {
      if (e.column.is_variable) {
        out->Fail(Status::EvalError("attribute variable '" + e.column.text +
                                    "' not instantiated before evaluation"));
        return;
      }
      int idx = b.LookupQualified(e.qualifier, e.column.text);
      if (idx < 0) {
        out->Fail(Status::BindError("unresolved column '" + e.qualifier + "." +
                                    e.column.text + "'"));
      } else {
        out->Emit(ExprOpCode::kPushSlot, BinaryOp::kEq, idx, +1);
      }
      return;
    }
    case ExprKind::kArith:
      CompileValue(*e.left, b, out);
      CompileValue(*e.right, b, out);
      out->Emit(ExprOpCode::kArith, e.op, 0, -1);
      return;
    case ExprKind::kCompare:
    case ExprKind::kLogic:
    case ExprKind::kNot:
    case ExprKind::kLike:
    case ExprKind::kContains:
    case ExprKind::kHasWord:
    case ExprKind::kIsNull:
      // Predicate in value context: the predicate ops push the TriBool's
      // value encoding (TriBoolToValue).
      CompilePred(e, b, out);
      return;
    case ExprKind::kAgg:
      if (out->agg_base < 0) {
        out->Fail(Status::EvalError(
            "aggregate evaluated outside a grouping context"));
      } else {
        out->Emit(ExprOpCode::kPushSlot, BinaryOp::kEq,
                  out->agg_base + out->next_agg++, +1);
      }
      return;
    case ExprKind::kStar:
      out->Fail(Status::EvalError("'*' is only valid in a select list"));
      return;
  }
}

void CompilePred(const Expr& e, const ColumnBindings& b, ProgramBuilder* out) {
  switch (e.kind) {
    case ExprKind::kCompare:
      CompileValue(*e.left, b, out);
      CompileValue(*e.right, b, out);
      out->Emit(ExprOpCode::kCompare, e.op, 0, -1);
      return;
    case ExprKind::kLogic: {
      CompilePred(*e.left, b, out);
      // Short-circuit: AND stops on False, OR on True — the left value
      // stays on the stack as the result, and the right operand's ops
      // (errors included) are skipped.
      const bool is_and = e.op == BinaryOp::kAnd;
      const size_t jump_at = out->ops.size();
      out->Emit(is_and ? ExprOpCode::kJumpIfFalse : ExprOpCode::kJumpIfTrue,
                BinaryOp::kEq, 0, 0);
      CompilePred(*e.right, b, out);
      out->Emit(is_and ? ExprOpCode::kAnd : ExprOpCode::kOr, e.op, 0, -1);
      out->ops[jump_at].arg = static_cast<int32_t>(out->ops.size());
      return;
    }
    case ExprKind::kNot:
      CompilePred(*e.left, b, out);
      out->Emit(ExprOpCode::kNot, BinaryOp::kEq, 0, 0);
      return;
    case ExprKind::kLike:
      CompileValue(*e.left, b, out);
      CompileValue(*e.right, b, out);
      out->Emit(ExprOpCode::kLike, BinaryOp::kEq, 0, -1);
      return;
    case ExprKind::kContains:
      CompileValue(*e.left, b, out);
      CompileValue(*e.right, b, out);
      out->Emit(ExprOpCode::kContains, BinaryOp::kEq, 0, -1);
      return;
    case ExprKind::kHasWord:
      CompileValue(*e.left, b, out);
      CompileValue(*e.right, b, out);
      out->Emit(ExprOpCode::kHasWord, BinaryOp::kEq, 0, -1);
      return;
    case ExprKind::kIsNull:
      CompileValue(*e.left, b, out);
      out->Emit(ExprOpCode::kIsNull, BinaryOp::kEq, e.negated ? 1 : 0, 0);
      return;
    default:
      // Value expression in predicate position: evaluate, then apply the
      // NULL/BOOL coercion rule.
      CompileValue(e, b, out);
      out->Emit(ExprOpCode::kCoerceBool, BinaryOp::kEq, 0, 0);
      return;
  }
}

/// Decodes the tri-valued encoding (NULL = Unknown, BOOL = True/False).
/// Only called on values produced by predicate ops, which guarantee the
/// shape by construction.
inline TriBool TriOf(const Value& v) {
  if (v.is_null()) return TriBool::kUnknown;
  return v.as_bool() ? TriBool::kTrue : TriBool::kFalse;
}

/// Per-thread evaluation scratch, allocated from a thread-local std::pmr
/// monotonic arena so the per-row hot path (possibly on many morsel workers
/// at once) never touches the global allocator and shares nothing across
/// threads. The operand stack holds *pointers* — leaf pushes alias the row
/// slot or the program's literal pool instead of copying the Value (a
/// string copy per row, otherwise); only operator results materialize, into
/// `temps`, which is reserved to the program's op count up front so the
/// pointers stay stable (each op materializes at most once, and jumps only
/// move forward, so ops.size() bounds live temporaries).
struct EvalScratch {
  std::pmr::monotonic_buffer_resource arena{1024};
  std::pmr::vector<const Value*> stack{&arena};
  std::pmr::vector<Value> temps{&arena};
};

EvalScratch& LocalScratch() {
  thread_local EvalScratch scratch;
  return scratch;
}

/// Three-way comparison of same-kind INT, DOUBLE or DATE operands, exactly
/// as Value::Compare orders them. False for every other kind pair (NULLs,
/// mixed numerics, strings, bools, mismatches), which the caller hands to
/// EvalCompareOp.
inline bool CompareTyped(const Value& l, const Value& r, int* cmp) {
  const TypeKind k = l.kind();
  if (k != r.kind()) return false;
  switch (k) {
    case TypeKind::kInt: {
      int64_t x = l.as_int(), y = r.as_int();
      *cmp = (x < y) ? -1 : (x > y) ? 1 : 0;
      return true;
    }
    case TypeKind::kDouble: {
      double x = l.as_double(), y = r.as_double();
      *cmp = (x < y) ? -1 : (x > y) ? 1 : 0;
      return true;
    }
    case TypeKind::kDate: {
      int32_t x = l.as_date().days_since_epoch();
      int32_t y = r.as_date().days_since_epoch();
      *cmp = (x < y) ? -1 : (x > y) ? 1 : 0;
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

std::shared_ptr<const CompiledExpr> CompiledExpr::Compile(
    const Expr& e, const ColumnBindings& bindings, bool as_predicate,
    int agg_base) {
  ProgramBuilder builder;
  builder.agg_base = agg_base;
  if (as_predicate) {
    CompilePred(e, bindings, &builder);
  } else {
    CompileValue(e, bindings, &builder);
  }
  auto prog = std::shared_ptr<CompiledExpr>(new CompiledExpr());
  prog->ops_ = std::move(builder.ops);
  prog->literals_ = std::move(builder.literals);
  prog->failures_ = std::move(builder.failures);
  prog->max_stack_ = static_cast<size_t>(builder.max_depth);
  // Fast forms (see the class comment), recognized on the finished program.
  const std::vector<ExprOp>& ops = prog->ops_;
  auto operand = [](const ExprOp& op, Operand* o) {
    if (op.code != ExprOpCode::kPushSlot &&
        op.code != ExprOpCode::kPushLiteral) {
      return false;
    }
    o->slot = op.code == ExprOpCode::kPushSlot;
    o->index = op.arg;
    return true;
  };
  if (ops.size() == 1 && ops[0].code == ExprOpCode::kPushSlot) {
    prog->bare_slot_ = ops[0].arg;
  } else if (ops.size() == 3 && ops[2].code == ExprOpCode::kCompare &&
             operand(ops[0], &prog->lhs_) && operand(ops[1], &prog->rhs_)) {
    prog->is_compare_ = true;
    prog->compare_op_ = ops[2].bop;
  }
  return prog;
}

Result<TriBool> CompiledExpr::RunCompare(const Row& row) const {
  const Value& l = Fetch(lhs_, row);
  const Value& r = Fetch(rhs_, row);
  int cmp = 0;
  if (CompareTyped(l, r, &cmp)) return CompareVerdict(compare_op_, cmp);
  return EvalCompareOp(compare_op_, l, r);
}

Result<Value> CompiledExpr::Run(const Row& row) const {
  EvalScratch& scratch = LocalScratch();
  std::pmr::vector<const Value*>& st = scratch.stack;
  std::pmr::vector<Value>& temps = scratch.temps;
  st.clear();
  temps.clear();
  if (st.capacity() < max_stack_) st.reserve(max_stack_);
  if (temps.capacity() < ops_.size()) temps.reserve(ops_.size());
  for (size_t ip = 0; ip < ops_.size(); ++ip) {
    const ExprOp& op = ops_[ip];
    switch (op.code) {
      case ExprOpCode::kPushLiteral:
        st.push_back(&literals_[op.arg]);
        break;
      case ExprOpCode::kPushSlot:
        st.push_back(&row[op.arg]);
        break;
      case ExprOpCode::kArith: {
        const Value* r = st.back();
        st.pop_back();
        const Value* l = st.back();
        st.pop_back();
        DV_ASSIGN_OR_RETURN(Value v, EvalArithOp(op.bop, *l, *r));
        temps.push_back(std::move(v));
        st.push_back(&temps.back());
        break;
      }
      case ExprOpCode::kCompare: {
        const Value* r = st.back();
        st.pop_back();
        const Value* l = st.back();
        st.pop_back();
        DV_ASSIGN_OR_RETURN(TriBool t, EvalCompareOp(op.bop, *l, *r));
        temps.push_back(TriBoolToValue(t));
        st.push_back(&temps.back());
        break;
      }
      case ExprOpCode::kLike: {
        const Value* r = st.back();
        st.pop_back();
        const Value* l = st.back();
        st.pop_back();
        DV_ASSIGN_OR_RETURN(TriBool t, EvalLikeOp(*l, *r));
        temps.push_back(TriBoolToValue(t));
        st.push_back(&temps.back());
        break;
      }
      case ExprOpCode::kContains: {
        const Value* r = st.back();
        st.pop_back();
        const Value* l = st.back();
        st.pop_back();
        DV_ASSIGN_OR_RETURN(TriBool t, EvalContainsOp(*l, *r));
        temps.push_back(TriBoolToValue(t));
        st.push_back(&temps.back());
        break;
      }
      case ExprOpCode::kHasWord: {
        const Value* r = st.back();
        st.pop_back();
        const Value* l = st.back();
        st.pop_back();
        DV_ASSIGN_OR_RETURN(TriBool t, EvalHasWordOp(*l, *r));
        temps.push_back(TriBoolToValue(t));
        st.push_back(&temps.back());
        break;
      }
      case ExprOpCode::kIsNull: {
        bool null = st.back()->is_null();
        st.pop_back();
        if (op.arg != 0) null = !null;
        temps.push_back(Value::Bool(null));
        st.push_back(&temps.back());
        break;
      }
      case ExprOpCode::kNot: {
        TriBool t = TriOf(*st.back());
        st.pop_back();
        temps.push_back(TriBoolToValue(TriNot(t)));
        st.push_back(&temps.back());
        break;
      }
      case ExprOpCode::kAnd: {
        TriBool r = TriOf(*st.back());
        st.pop_back();
        TriBool l = TriOf(*st.back());
        st.pop_back();
        temps.push_back(TriBoolToValue(TriAnd(l, r)));
        st.push_back(&temps.back());
        break;
      }
      case ExprOpCode::kOr: {
        TriBool r = TriOf(*st.back());
        st.pop_back();
        TriBool l = TriOf(*st.back());
        st.pop_back();
        temps.push_back(TriBoolToValue(TriOr(l, r)));
        st.push_back(&temps.back());
        break;
      }
      case ExprOpCode::kJumpIfFalse:
        if (TriOf(*st.back()) == TriBool::kFalse) {
          ip = static_cast<size_t>(op.arg) - 1;
        }
        break;
      case ExprOpCode::kJumpIfTrue:
        if (TriOf(*st.back()) == TriBool::kTrue) {
          ip = static_cast<size_t>(op.arg) - 1;
        }
        break;
      case ExprOpCode::kCoerceBool: {
        const Value& v = *st.back();
        if (!v.is_null() && v.kind() != TypeKind::kBool) {
          return Status::TypeError("predicate did not evaluate to a boolean");
        }
        break;
      }
      case ExprOpCode::kFail:
        return failures_[op.arg];
    }
  }
  return *st.back();
}

Result<Value> CompiledExpr::EvalValue(const Row& row) const {
  if (bare_slot_ >= 0) return row[bare_slot_];
  if (is_compare_) {
    DV_ASSIGN_OR_RETURN(TriBool t, RunCompare(row));
    return TriBoolToValue(t);
  }
  return Run(row);
}

Result<TriBool> CompiledExpr::EvalPredicate(const Row& row) const {
  if (is_compare_) return RunCompare(row);
  DV_ASSIGN_OR_RETURN(Value v, Run(row));
  if (v.is_null()) return TriBool::kUnknown;
  if (v.kind() == TypeKind::kBool) {
    return v.as_bool() ? TriBool::kTrue : TriBool::kFalse;
  }
  return Status::TypeError("predicate did not evaluate to a boolean");
}

void CollectAggregates(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kAgg) {
    out->push_back(&e);
    return;
  }
  if (e.left != nullptr) CollectAggregates(*e.left, out);
  if (e.right != nullptr) CollectAggregates(*e.right, out);
}

namespace {

/// Resolved slot indexes in pre-order — the part of a program's identity the
/// rendering alone cannot capture (groundings clone one AST into several
/// working-set layouts; same text, different slots).
void SlotSignature(const Expr& e, const ColumnBindings& b, std::string* out) {
  switch (e.kind) {
    case ExprKind::kVarRef:
      *out += ';';
      *out += std::to_string(b.LookupBare(e.var_name));
      return;
    case ExprKind::kColumnRef:
      *out += ';';
      *out += std::to_string(
          e.column.is_variable
              ? -3
              : b.LookupQualified(e.qualifier, e.column.text));
      return;
    default:
      if (e.left != nullptr) SlotSignature(*e.left, b, out);
      if (e.right != nullptr) SlotSignature(*e.right, b, out);
      return;
  }
}

}  // namespace

std::shared_ptr<const CompiledExpr> ExprProgramCache::GetOrCompile(
    const Expr& e, const ColumnBindings& bindings, bool as_predicate,
    MetricsRegistry* metrics, int agg_base) {
  std::string key = as_predicate ? "P|" : "V|";
  key += e.ToString();
  key += '|';
  SlotSignature(e, bindings, &key);
  if (agg_base >= 0) key += "|G" + std::to_string(agg_base);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) return it->second;
  }
  std::shared_ptr<const CompiledExpr> prog =
      CompiledExpr::Compile(e, bindings, as_predicate, agg_base);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) return it->second;  // Raced compile: first in wins.
    if (map_.size() >= max_entries_) map_.clear();
    map_.emplace(std::move(key), prog);
  }
  if (metrics != nullptr) metrics->Add(counters::kExprsFlattened, 1);
  return prog;
}

size_t ExprProgramCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace dynview
