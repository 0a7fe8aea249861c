#include "engine/query_engine.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>

#include <chrono>
#include <thread>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "engine/expr_eval.h"
#include "engine/operators.h"
#include "observe/observer.h"
#include "schemasql/instantiate.h"
#include "sql/parser.h"

namespace dynview {

namespace {

/// A partially joined result: the table plus name→column bindings.
struct WorkingSet {
  Table table;
  ColumnBindings bindings;
};

void SplitConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kLogic && e->op == BinaryOp::kAnd) {
    SplitConjuncts(e->left.get(), out);
    SplitConjuncts(e->right.get(), out);
    return;
  }
  out->push_back(e);
}

std::string OutputName(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr != nullptr) {
    if (item.expr->kind == ExprKind::kVarRef) return item.expr->var_name;
    if (item.expr->kind == ExprKind::kColumnRef) return item.expr->column.text;
    if (item.expr->kind == ExprKind::kAgg) {
      return ToLower(AggFuncName(item.expr->agg_func));
    }
  }
  return "col" + std::to_string(index);
}

/// Computes one aggregate over the rows of a group; `arg` is the prepared
/// argument (unused for COUNT(*)).
Result<Value> ComputeAggregate(const Expr& agg, const PreparedValue& arg,
                               const std::vector<const Row*>& rows) {
  if (agg.agg_func == AggFunc::kCountStar) {
    return Value::Int(static_cast<int64_t>(rows.size()));
  }
  std::vector<Value> values;
  values.reserve(rows.size());
  for (const Row* r : rows) {
    DV_ASSIGN_OR_RETURN(Value v, arg.Eval(*r));
    if (!v.is_null()) values.push_back(std::move(v));
  }
  if (agg.agg_distinct) {
    std::vector<Value> uniq;
    for (const Value& v : values) {
      bool dup = false;
      for (const Value& u : uniq) {
        if (u.GroupEquals(v)) {
          dup = true;
          break;
        }
      }
      if (!dup) uniq.push_back(v);
    }
    values = std::move(uniq);
  }
  switch (agg.agg_func) {
    case AggFunc::kCount:
      return Value::Int(static_cast<int64_t>(values.size()));
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      if (values.empty()) return Value::Null();
      bool all_int = true;
      double dsum = 0;
      int64_t isum = 0;
      for (const Value& v : values) {
        if (!v.is_numeric()) {
          return Status::TypeError("SUM/AVG over non-numeric values");
        }
        if (v.kind() != TypeKind::kInt) all_int = false;
        dsum += v.NumericAsDouble();
        if (v.kind() == TypeKind::kInt) isum += v.as_int();
      }
      if (agg.agg_func == AggFunc::kAvg) {
        return Value::Double(dsum / static_cast<double>(values.size()));
      }
      return all_int ? Value::Int(isum) : Value::Double(dsum);
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      if (values.empty()) return Value::Null();
      Value best = values[0];
      for (size_t i = 1; i < values.size(); ++i) {
        int cmp = 0;
        DV_ASSIGN_OR_RETURN(TriBool known,
                            Value::Compare(values[i], best, &cmp));
        if (known != TriBool::kTrue) {
          return Status::TypeError("MIN/MAX over incomparable values");
        }
        bool take = agg.agg_func == AggFunc::kMin ? cmp < 0 : cmp > 0;
        if (take) best = values[i];
      }
      return best;
    }
    default:
      return Status::Internal("bad aggregate");
  }
}

/// One expression of the grouping operator (HAVING, a select item or an
/// ORDER BY key): its program over the group's representative row extended
/// by aggregate slots, and the aggregates feeding those slots.
struct GroupedExpr {
  std::shared_ptr<const CompiledExpr> program;
  std::vector<const Expr*> aggs;     // Slot order (CollectAggregates).
  std::vector<PreparedValue> args;   // Aligned with `aggs`.
};

GroupedExpr PrepareGrouped(const Expr& e, const ColumnBindings& b,
                           int agg_base, bool as_predicate,
                           const ExecContext& ctx) {
  GroupedExpr g;
  g.program = PrepareProgram(e, b, as_predicate, ctx, agg_base);
  CollectAggregates(e, &g.aggs);
  for (const Expr* a : g.aggs) {
    g.args.push_back(a->agg_func == AggFunc::kCountStar
                         ? PreparedValue{}
                         : PrepareValue(*a->left, b, ctx));
  }
  return g;
}

/// Computes `g`'s aggregates over `rows` in slot order into the slots past
/// `width` of `rep` (the group's representative row), so an aggregate's
/// error surfaces before any error of the expression around it.
Status FillAggregates(const GroupedExpr& g,
                      const std::vector<const Row*>& rows, size_t width,
                      Row* rep) {
  rep->resize(width + g.aggs.size());
  for (size_t k = 0; k < g.aggs.size(); ++k) {
    DV_ASSIGN_OR_RETURN((*rep)[width + k],
                        ComputeAggregate(*g.aggs[k], g.args[k], rows));
  }
  return Status::OK();
}

/// True if the tree references any column or variable.
bool HasRefs(const Expr& e) {
  if (e.kind == ExprKind::kVarRef || e.kind == ExprKind::kColumnRef) return true;
  if (e.left && HasRefs(*e.left)) return true;
  if (e.right && HasRefs(*e.right)) return true;
  return false;
}

/// Collects the maximal aggregate-free subexpressions (and aggregate
/// arguments) that reference columns — the base values a global aggregation
/// layer needs from the grounded union.
void CollectBaseExprs(const Expr& e,
                      const std::function<void(const Expr&)>& add) {
  if (e.kind == ExprKind::kAgg) {
    if (e.left) add(*e.left);
    return;
  }
  if (!e.ContainsAggregate()) {
    if (HasRefs(e)) add(e);
    return;
  }
  if (e.left) CollectBaseExprs(*e.left, add);
  if (e.right) CollectBaseExprs(*e.right, add);
}

/// Rewrites `e` against the inner projection: any subtree whose rendering is
/// a collected base expression becomes a reference to its inner column.
std::unique_ptr<Expr> RewriteToInner(
    const Expr& e, const std::map<std::string, std::string>& expr_to_col) {
  if (e.kind != ExprKind::kLiteral && e.kind != ExprKind::kStar) {
    auto it = expr_to_col.find(e.ToString());
    if (it != expr_to_col.end()) return Expr::MakeVarRef(it->second);
  }
  std::unique_ptr<Expr> out = e.Clone();
  if (e.left) out->left = RewriteToInner(*e.left, expr_to_col);
  if (e.right) out->right = RewriteToInner(*e.right, expr_to_col);
  return out;
}

}  // namespace

Result<Table> QueryEngine::ExecuteSql(const std::string& sql) {
  return ExecuteSql(sql, query_ctx_);
}

Result<Table> QueryEngine::ExecuteSql(const std::string& sql,
                                      QueryContext* qc) {
  DV_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt,
                      Parser::ParseSelect(sql));
  return Execute(stmt.get(), qc);
}

std::shared_ptr<const CatalogSnapshot> QueryEngine::PinnedSnapshot(
    QueryContext* qc) const {
  // A pinned snapshot only applies when it was taken from this engine's own
  // catalog: sub-engines over scratch catalogs (the higher-order outer
  // layer, plan execution scratch) must read their own catalog, not the
  // query's pin.
  if (qc != nullptr && qc->snapshot() != nullptr &&
      qc->snapshot()->origin() == catalog_) {
    return qc->snapshot();
  }
  return catalog_->Snapshot();
}

namespace {

/// Records the failpoint trips injected while alive as a counter delta on
/// destruction. Uses Add (not Set) so several Execute calls under one
/// observer accumulate; the underlying count is process-global, so the delta
/// attributes trips of *concurrent* queries to whichever observer is live —
/// fine for the single-driver execution model this engine assumes.
struct TripDelta {
  MetricsRegistry* metrics;
  uint64_t base = metrics == nullptr ? 0 : FailPoints::TripCount();
  ~TripDelta() {
    if (metrics != nullptr) {
      metrics->Add(counters::kFailpointTrips, FailPoints::TripCount() - base);
    }
  }
};

}  // namespace

Result<Table> QueryEngine::Execute(SelectStmt* stmt) {
  return Execute(stmt, query_ctx_);
}

Result<Table> QueryEngine::Execute(SelectStmt* stmt, QueryContext* qc) {
  // The snapshot is pinned once here; every branch, grounding and operator
  // below reads this one version.
  return ExecuteImpl(stmt, qc, PinnedSnapshot(qc));
}

Result<Table> QueryEngine::ExecuteImpl(SelectStmt* stmt, QueryContext* qc,
                                       const SnapshotRef& snap) {
  const ExecContext octx = Ctx(qc, snap);
  ScopedSpan query_span(octx.trace, "query.execute");
  TripDelta trips{octx.metrics};
  Table acc;
  bool first = true;
  bool pending_all = false;
  for (SelectStmt* branch = stmt; branch != nullptr;
       branch = branch->union_next.get()) {
    // Guard check per UNION branch: a 0 ms deadline or a pre-cancelled
    // context trips before any evaluation starts.
    if (qc != nullptr) {
      DV_RETURN_IF_ERROR(qc->CheckGuards());
    }
    DV_ASSIGN_OR_RETURN(BoundQuery bq, Binder::BindBranch(branch));
    DV_ASSIGN_OR_RETURN(Table t, EvaluateBranchImpl(*branch, bq, qc, snap));
    if (first) {
      acc = std::move(t);
      first = false;
    } else {
      // Union contributions counted on the driving thread, pre-Distinct:
      // the value equals the bag-union size independent of thread count.
      octx.Count(counters::kRowsUnioned, t.num_rows());
      // Move-append instead of UnionAll: the accumulator is never recopied.
      DV_RETURN_IF_ERROR(acc.AppendTable(std::move(t)));
      if (!pending_all) {
        Table distinct = acc.Distinct();
        acc = std::move(distinct);
      }
    }
    pending_all = branch->union_all;
  }
  if (first) return Status::Internal("unset");
  return acc;
}

ThreadPool* QueryEngine::EnsurePool() {
  ThreadPool* existing = CurrentPool();
  if (existing != nullptr) return existing;
  size_t threads = exec_.ResolvedThreads();
  if (threads <= 1) return nullptr;
  // First caller in wins; concurrent guarded queries sharing one engine all
  // reach the same pool.
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_ == nullptr) {
    // The queue cap backpressures runaway fan-outs (ParallelFor degrades to
    // fewer helpers instead of enqueueing unbounded work).
    pool_ = std::make_unique<ThreadPool>(threads - 1, exec_.max_queued_tasks);
    pool_ptr_.store(pool_.get(), std::memory_order_release);
  }
  return pool_.get();
}

ThreadPool* QueryEngine::CurrentPool() const {
  return pool_ptr_.load(std::memory_order_acquire);
}

ExecContext QueryEngine::Ctx(QueryContext* qc, const SnapshotRef& snap) const {
  ExecContext ctx;
  ctx.pool = CurrentPool();
  ctx.morsel_rows = exec_.morsel_rows;
  ctx.guard = qc;
  ctx.snapshot = snap.get();
  if (qc != nullptr && qc->observer() != nullptr) {
    ctx.trace = &qc->observer()->trace;
    ctx.metrics = &qc->observer()->metrics;
  }
  // A cached plan's own program memo wins (satisfying one-compile-per-plan
  // across the grounding fan-out and across executions); otherwise the
  // engine's default cache still dedups within and across queries.
  ctx.programs = (qc != nullptr && qc->expr_programs() != nullptr)
                     ? qc->expr_programs().get()
                     : &default_programs_;
  return ctx;
}

namespace {

Table ApplyLimit(Table t, int64_t limit) {
  // In-place truncation: the kept prefix is never copied.
  if (limit >= 0) t.Truncate(static_cast<size_t>(limit));
  return t;
}

/// True if any constant tuple reference of `stmt` scans more rows than the
/// morsel threshold — the cheap test for whether spinning up workers can pay
/// off on a branch without a grounding fan-out.
bool HasLargeScan(const SelectStmt& stmt, const CatalogReader& catalog,
                  const std::string& default_db, size_t threshold) {
  for (const FromItem& f : stmt.from_items) {
    if (f.kind != FromItemKind::kTupleVar) continue;
    if (f.db.is_variable || f.rel.is_variable) continue;
    std::string db = f.db.empty() ? default_db : f.db.text;
    Result<const Table*> t = catalog.ResolveTable(db, f.rel.text);
    if (t.ok() && t.value()->num_rows() > threshold) return true;
  }
  return false;
}

}  // namespace

Result<Table> QueryEngine::EvaluateBranch(const SelectStmt& stmt,
                                          const BoundQuery& bq) {
  return EvaluateBranch(stmt, bq, query_ctx_);
}

Result<Table> QueryEngine::EvaluateBranch(const SelectStmt& stmt,
                                          const BoundQuery& bq,
                                          QueryContext* qc) {
  return EvaluateBranchImpl(stmt, bq, qc, PinnedSnapshot(qc));
}

Result<Table> QueryEngine::EvaluateBranchImpl(const SelectStmt& stmt,
                                              const BoundQuery& bq,
                                              QueryContext* qc,
                                              const SnapshotRef& snap) {
  if (stmt.limit >= 0 && stmt.union_next != nullptr) {
    return Status::Unsupported("LIMIT on a UNION branch");
  }
  if (!bq.higher_order) {
    // Workers are spun up lazily, and only when a scan is large enough for
    // the morsel-driven operators to engage.
    if (HasLargeScan(stmt, *snap, default_db_, exec_.morsel_rows)) {
      EnsurePool();
    }
    return EvaluateFirstOrder(stmt, qc, snap);
  }

  // SchemaSQL semantics: grouping, aggregation, DISTINCT and ORDER BY apply
  // over the union of ALL groundings (Ex. 5.2: max(P) ranges across every
  // attribute instantiation). Such queries run in two layers: an
  // aggregate-free inner query evaluated per grounding and unioned, then
  // the aggregation layer over the union.
  bool needs_global = stmt.distinct || !stmt.order_by.empty() ||
                      !stmt.group_by.empty() || stmt.having != nullptr;
  for (const SelectItem& item : stmt.select_list) {
    if (item.expr->ContainsAggregate()) needs_global = true;
  }
  if (needs_global) return EvaluateHigherOrderGlobal(stmt, qc, snap);

  // Observability context for the fan-out (pool intentionally not ensured
  // yet — only the trace/metrics sinks are used before evaluation starts).
  const ExecContext fctx = Ctx(qc, snap);
  DV_ASSIGN_OR_RETURN(
      std::vector<InstantiatedQuery> ground,
      InstantiateSchemaVars(stmt, bq, *snap, default_db_, fctx.metrics));
  // Empty table with the statement's output names — the zero-grounding
  // result, also produced when every grounding was skipped by policy (star
  // cannot be expanded without a grounding).
  auto empty_result = [&stmt]() -> Result<Table> {
    std::vector<Column> cols;
    for (size_t i = 0; i < stmt.select_list.size(); ++i) {
      if (stmt.select_list[i].expr->kind == ExprKind::kStar) {
        return Status::Unsupported(
            "SELECT * requires at least one schema-variable grounding");
      }
      cols.emplace_back(OutputName(stmt.select_list[i], i), TypeKind::kNull);
    }
    return Table(Schema(std::move(cols)));
  };
  if (ground.empty()) return empty_result();

  // The grounding fan-out is embarrassingly parallel (the paper's Sec. 6
  // "orchestration around a conventional evaluator"): every grounding is an
  // independent first-order query over a clone of the already-bound AST.
  // SubstituteLabels preserves the binder's NameTerm annotations, so no
  // per-grounding re-parse/re-bind is needed — and EvaluateFirstOrder reads
  // annotations from the AST only. Results land in per-grounding slots and
  // merge in declaration order, so the output (rows *and* their order, or
  // the reported error) is identical to serial evaluation.
  ThreadPool* pool = nullptr;
  if (ground.size() > 1 ||
      HasLargeScan(*ground[0].query, *snap, default_db_,
                   exec_.morsel_rows)) {
    pool = EnsurePool();
  }
  fctx.Count(counters::kGroundingsEvaluated, ground.size());
  ScopedSpan fanout_span(fctx.trace, "grounding.fanout",
                         std::to_string(ground.size()) + " groundings");
  const SourcePolicy policy =
      qc == nullptr ? SourcePolicy::kFailFast : qc->guards().source_policy;
  // Each grounding is one source's independent contribution (local-as-view:
  // a source relation per grounding), so source-level fault tolerance —
  // failpoint injection, retry with backoff, skip-and-report — applies at
  // exactly this granularity.
  auto source_label = [](const InstantiatedQuery& g) {
    std::string label;
    for (const auto& [var, chosen] : g.labels) {
      (void)var;
      if (!label.empty()) label += ",";
      label += chosen;
    }
    return label;
  };
  auto eval_attempt = [&](size_t i) -> Result<Table> {
    if (FailPoints::AnyArmed()) {
      // Match details are lowercased (like catalog.resolve's `db::rel`) so
      // failpoint specs don't depend on label casing.
      DV_RETURN_IF_ERROR(FailPoints::Check(
          "engine.grounding", ToLower(source_label(ground[i]))));
    }
    return EvaluateFirstOrder(*ground[i].query, qc, snap);
  };
  std::vector<Result<Table>> parts(ground.size(),
                                   Result<Table>(Status::Internal("pending")));
  auto eval_one = [&](size_t i) {
    // May run on a pool worker: the explicit parent stitches the span under
    // the fan-out even though the thread-local nesting stack is empty here.
    ScopedSpan gspan(fctx.trace, "grounding", source_label(ground[i]),
                     fanout_span.id());
    Result<Table> r = eval_attempt(i);
    if (policy == SourcePolicy::kRetry && qc != nullptr) {
      const QueryGuards& g = qc->guards();
      for (int attempt = 1;
           attempt <= g.max_retries && !r.ok() &&
           IsTransient(r.status().code()) && qc->CheckGuards().ok();
           ++attempt) {
        fctx.Count(counters::kSourceRetries, 1);
        int backoff_ms =
            std::min(100, g.retry_backoff_ms << (attempt - 1));
        if (backoff_ms > 0) {
          // Injectable backoff: tests and the chaos harness replace the real
          // sleep with a recording hook, keeping retry schedules
          // deterministic and fast.
          if (g.retry_sleep) {
            g.retry_sleep(backoff_ms);
          } else {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff_ms));
          }
        }
        r = eval_attempt(i);
      }
    }
    parts[i] = std::move(r);
  };
  if (pool != nullptr && ground.size() > 1) {
    pool->ParallelFor(ground.size(), eval_one,
                      qc == nullptr ? nullptr : qc->cancel_flag());
  } else {
    for (size_t i = 0; i < ground.size(); ++i) {
      if (qc != nullptr &&
          qc->cancel_flag()->load(std::memory_order_relaxed)) {
        break;  // A tripped guard stops the serial fan-out too.
      }
      eval_one(i);
    }
  }
  // A guard trip beats per-grounding errors: skipped slots were never
  // written, and the trip status is the query's real outcome.
  if (qc != nullptr) DV_RETURN_IF_ERROR(qc->CheckGuards());
  Table acc;
  bool first = true;
  for (size_t i = 0; i < ground.size(); ++i) {
    Result<Table>& part = parts[i];
    if (!part.ok()) {
      // Transient source failures degrade under kSkipAndReport: drop this
      // grounding's contribution and record which source was omitted.
      // Warnings are appended here, in declaration order on the driving
      // thread, so partial results are deterministic across thread counts.
      if (qc != nullptr && policy == SourcePolicy::kSkipAndReport &&
          IsTransient(part.status().code())) {
        fctx.Count(counters::kSourcesSkipped, 1);
        qc->AddWarning({source_label(ground[i]), part.status()});
        continue;
      }
      return part.status();
    }
    // Grounding contributions counted in declaration order on the driving
    // thread: the bag-union size is identical across thread counts.
    fctx.Count(counters::kRowsUnioned, part.value().num_rows());
    if (first) {
      acc = std::move(part).value();
      first = false;
    } else {
      DV_RETURN_IF_ERROR(acc.AppendTable(std::move(part).value()));
    }
  }
  if (first) {
    // Every grounding was skipped: an empty (but well-formed) result whose
    // warnings name what is missing.
    DV_ASSIGN_OR_RETURN(acc, empty_result());
  }
  return ApplyLimit(std::move(acc), stmt.limit);
}

Result<Table> QueryEngine::EvaluateHigherOrderGlobal(
    const SelectStmt& stmt, QueryContext* qc, const SnapshotRef& snap) {
  // 1. Collect the base expressions (group keys, aggregate arguments,
  //    aggregate-free select/having/order subtrees).
  std::map<std::string, std::string> expr_to_col;
  std::vector<std::unique_ptr<Expr>> base;
  auto add = [&](const Expr& e) {
    std::string key = e.ToString();
    if (expr_to_col.count(key) > 0) return;
    expr_to_col[key] = "bc" + std::to_string(base.size());
    base.push_back(e.Clone());
  };
  for (const auto& g : stmt.group_by) add(*g);
  for (const SelectItem& item : stmt.select_list) {
    if (item.expr->kind == ExprKind::kStar) {
      return Status::Unsupported(
          "SELECT * cannot be combined with global higher-order "
          "aggregation/ordering");
    }
    CollectBaseExprs(*item.expr, add);
  }
  if (stmt.having) CollectBaseExprs(*stmt.having, add);
  for (const OrderItem& o : stmt.order_by) CollectBaseExprs(*o.expr, add);

  // 2. Inner query: same FROM/WHERE, projecting the base expressions.
  std::unique_ptr<SelectStmt> inner = stmt.Clone();
  inner->distinct = false;
  inner->group_by.clear();
  inner->having.reset();
  inner->order_by.clear();
  inner->limit = -1;
  inner->union_next.reset();
  inner->select_list.clear();
  for (auto& b : base) {
    std::string name = expr_to_col[b->ToString()];
    inner->select_list.emplace_back(std::move(b), name);
  }
  if (inner->select_list.empty()) {
    // e.g. SELECT COUNT(*) — project a constant to keep row multiplicity.
    inner->select_list.emplace_back(Expr::MakeLiteral(Value::Int(1)), "bc0");
  }
  DV_ASSIGN_OR_RETURN(BoundQuery ibq, Binder::BindBranch(inner.get()));
  DV_ASSIGN_OR_RETURN(Table rows, EvaluateBranchImpl(*inner, ibq, qc, snap));

  // 3. Outer query over the unioned rows in a scratch catalog.
  Catalog scratch;
  DV_RETURN_IF_ERROR(scratch.PutTable("sc", "inner_rows", std::move(rows)));
  auto outer = std::make_unique<SelectStmt>();
  outer->distinct = stmt.distinct;
  outer->limit = stmt.limit;
  FromItem scan;
  scan.kind = FromItemKind::kTupleVar;
  scan.rel = NameTerm("inner_rows");
  scan.var = "inner_rows";
  outer->from_items.push_back(std::move(scan));
  for (size_t i = 0; i < stmt.select_list.size(); ++i) {
    outer->select_list.emplace_back(
        RewriteToInner(*stmt.select_list[i].expr, expr_to_col),
        OutputName(stmt.select_list[i], i));
  }
  for (const auto& g : stmt.group_by) {
    outer->group_by.push_back(RewriteToInner(*g, expr_to_col));
  }
  if (stmt.having) outer->having = RewriteToInner(*stmt.having, expr_to_col);
  for (const OrderItem& o : stmt.order_by) {
    OrderItem no;
    no.expr = RewriteToInner(*o.expr, expr_to_col);
    no.descending = o.descending;
    outer->order_by.push_back(std::move(no));
  }
  QueryEngine sub(&scratch, "sc", exec_);
  // The outer layer reuses this engine's workers and stays under the same
  // guards; it reads the scratch catalog's own (freshly built) snapshot,
  // never the query's pin, which belongs to the main catalog.
  sub.pool_ptr_.store(CurrentPool(), std::memory_order_release);
  DV_RETURN_IF_ERROR(Binder::BindBranch(outer.get()).status());
  return sub.EvaluateFirstOrder(*outer, qc, scratch.Snapshot());
}

Result<Table> QueryEngine::EvaluateFirstOrder(const SelectStmt& stmt,
                                              QueryContext* qc,
                                              const SnapshotRef& snap) {
  // May run on a pool worker (one grounding of a parallel fan-out); nested
  // parallel regions then degrade to inline loops inside ParallelFor.
  const ExecContext ctx = Ctx(qc, snap);
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(stmt.where.get(), &conjuncts);
  std::vector<bool> applied(conjuncts.size(), false);

  // Constant conjuncts (e.g. grounded label comparisons such as
  // 'price' <> 'date') evaluate once; a false one empties every scan. Their
  // programs are compiled uncached: grounded labels differ per grounding
  // and would flood the per-plan memo.
  bool infeasible = false;
  {
    ColumnBindings empty;
    Row no_row;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (!CanEvaluate(*conjuncts[i], empty)) continue;
      DV_ASSIGN_OR_RETURN(
          TriBool t,
          CompiledExpr::Compile(*conjuncts[i], empty, /*as_predicate=*/true)
              ->EvalPredicate(no_row));
      if (t != TriBool::kTrue) infeasible = true;
      applied[i] = true;
    }
  }

  // Join pipeline over tuple variables in declaration order.
  WorkingSet w;
  bool first = true;
  for (const FromItem& f : stmt.from_items) {
    if (f.kind != FromItemKind::kTupleVar) continue;
    // One guard check per pipeline step: scans and joins below run whole
    // operators, each of which re-checks internally at morsel granularity.
    DV_RETURN_IF_ERROR(ctx.CheckGuard());
    if (f.db.is_variable || f.rel.is_variable) {
      return Status::Internal("schema variable survived grounding: " +
                              f.ToString());
    }
    std::string db_name = f.db.empty() ? default_db_ : f.db.text;
    DV_ASSIGN_OR_RETURN(const Table* base,
                        snap->ResolveTable(db_name, f.rel.text));

    // Scan with bindings for this tuple variable.
    WorkingSet scan;
    scan.table = Table(base->schema());
    for (size_t c = 0; c < base->schema().num_columns(); ++c) {
      scan.bindings.AddQualified(f.var, base->schema().column(c).name,
                                 static_cast<int>(c));
    }
    // Register domain variables projecting this tuple variable.
    for (const FromItem& d : stmt.from_items) {
      if (d.kind != FromItemKind::kDomainVar) continue;
      if (!EqualsIgnoreCase(d.tuple, f.var)) continue;
      if (d.attr.is_variable) {
        return Status::Internal("attribute variable survived grounding: " +
                                d.ToString());
      }
      int idx = scan.bindings.LookupQualified(f.var, d.attr.text);
      if (idx < 0) {
        return Status::BindError("relation '" + f.rel.text +
                                 "' has no attribute '" + d.attr.text +
                                 "' (domain variable " + d.var + ")");
      }
      scan.bindings.AddNamed(d.var, idx);
    }
    // Predicate pushdown, fused into the scan: pushed conjuncts apply while
    // copying base rows (morsel-parallel above the threshold), so rows they
    // reject are never materialized in the working set.
    std::vector<const Expr*> pushed;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (applied[i] || conjuncts[i]->ContainsAggregate()) continue;
      if (!CanEvaluate(*conjuncts[i], scan.bindings)) continue;
      pushed.push_back(conjuncts[i]);
      applied[i] = true;
    }
    if (!infeasible) {
      DV_ASSIGN_OR_RETURN(scan.table,
                          FilterTable(*base, scan.bindings, pushed, ctx));
    }

    if (first) {
      w = std::move(scan);
      first = false;
      continue;
    }

    // Discover equi-join keys among the unapplied conjuncts.
    std::vector<const Expr*> lkeys, rkeys;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (applied[i]) continue;
      const Expr* c = conjuncts[i];
      if (c->kind != ExprKind::kCompare || c->op != BinaryOp::kEq) continue;
      if (CanEvaluate(*c->left, w.bindings) &&
          CanEvaluate(*c->right, scan.bindings)) {
        lkeys.push_back(c->left.get());
        rkeys.push_back(c->right.get());
        applied[i] = true;
      } else if (CanEvaluate(*c->right, w.bindings) &&
                 CanEvaluate(*c->left, scan.bindings)) {
        lkeys.push_back(c->right.get());
        rkeys.push_back(c->left.get());
        applied[i] = true;
      }
    }
    int old_width = static_cast<int>(w.table.schema().num_columns());
    Table joined;
    if (!lkeys.empty()) {
      DV_ASSIGN_OR_RETURN(joined,
                          JoinOnExprs(w.table, w.bindings, scan.table,
                                      scan.bindings, lkeys, rkeys, ctx));
    } else {
      DV_ASSIGN_OR_RETURN(joined, CrossProduct(w.table, scan.table, ctx));
    }
    w.table = std::move(joined);
    w.bindings.MergeShifted(scan.bindings, old_width);

    // Apply conjuncts that have just become evaluable.
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (applied[i] || conjuncts[i]->ContainsAggregate()) continue;
      if (!CanEvaluate(*conjuncts[i], w.bindings)) continue;
      DV_ASSIGN_OR_RETURN(
          w.table, FilterTable(w.table, w.bindings, {conjuncts[i]}, ctx));
      applied[i] = true;
    }
  }
  if (first) {
    return Status::BindError("query has no tuple variables in FROM");
  }
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (!applied[i]) {
      return Status::BindError("unresolvable predicate: " +
                               conjuncts[i]->ToString());
    }
  }

  // Output schema.
  bool has_star = false;
  bool has_agg = !stmt.group_by.empty() || stmt.having != nullptr;
  for (const SelectItem& item : stmt.select_list) {
    if (item.expr->kind == ExprKind::kStar) has_star = true;
    if (item.expr->ContainsAggregate()) has_agg = true;
  }
  if (has_star && has_agg) {
    return Status::Unsupported("SELECT * cannot be combined with aggregation");
  }

  std::vector<Column> out_cols;
  if (has_star) {
    for (const Column& c : w.table.schema().columns()) out_cols.push_back(c);
    for (size_t i = 0; i < stmt.select_list.size(); ++i) {
      if (stmt.select_list[i].expr->kind != ExprKind::kStar) {
        out_cols.emplace_back(OutputName(stmt.select_list[i], i),
                              TypeKind::kNull);
      }
    }
  } else {
    for (size_t i = 0; i < stmt.select_list.size(); ++i) {
      out_cols.emplace_back(OutputName(stmt.select_list[i], i),
                            TypeKind::kNull);
    }
  }
  Table out{Schema(std::move(out_cols))};
  std::vector<Row> order_keys;

  // ORDER BY may reference a select-list alias; resolve those to output
  // positions (standard SQL), everything else evaluates in input context.
  std::unordered_map<std::string, size_t> alias_pos;
  for (size_t i = 0; i < stmt.select_list.size(); ++i) {
    std::string name = OutputName(stmt.select_list[i], i);
    alias_pos.emplace(ToLower(name), i);
  }
  auto order_output_pos = [&](const Expr& e) -> int {
    if (e.kind != ExprKind::kVarRef) return -1;
    // Input columns win over aliases only when resolvable; alias resolution
    // is the fallback for otherwise-unresolvable names.
    if (CanEvaluate(e, w.bindings)) return -1;
    auto it = alias_pos.find(ToLower(e.var_name));
    if (it == alias_pos.end()) return -1;
    return static_cast<int>(it->second);
  };

  size_t since_check = 0;
  if (!has_agg) {
    // Projection and order-key programs compiled once, evaluated per row.
    std::vector<PreparedValue> proj(stmt.select_list.size());
    for (size_t si = 0; si < stmt.select_list.size(); ++si) {
      if (stmt.select_list[si].expr->kind == ExprKind::kStar) continue;
      proj[si] = PrepareValue(*stmt.select_list[si].expr, w.bindings, ctx);
    }
    std::vector<PreparedValue> order_vals;
    order_vals.reserve(stmt.order_by.size());
    for (const OrderItem& o : stmt.order_by) {
      order_vals.push_back(PrepareValue(*o.expr, w.bindings, ctx));
    }
    out.Reserve(w.table.num_rows());
    for (const Row& r : w.table.rows()) {
      if ((since_check++ & 1023) == 0) DV_RETURN_IF_ERROR(ctx.CheckGuard());
      Row orow;
      for (size_t si = 0; si < stmt.select_list.size(); ++si) {
        if (stmt.select_list[si].expr->kind == ExprKind::kStar) {
          orow.insert(orow.end(), r.begin(), r.end());
          continue;
        }
        DV_ASSIGN_OR_RETURN(Value v, proj[si].Eval(r));
        orow.push_back(std::move(v));
      }
      if (!stmt.order_by.empty()) {
        Row key;
        for (size_t k = 0; k < stmt.order_by.size(); ++k) {
          int pos = order_output_pos(*stmt.order_by[k].expr);
          if (pos >= 0) {
            key.push_back(orow[pos]);
            continue;
          }
          DV_ASSIGN_OR_RETURN(Value v, order_vals[k].Eval(r));
          key.push_back(std::move(v));
        }
        order_keys.push_back(std::move(key));
      }
      out.AppendRowUnchecked(std::move(orow));
    }
  } else {
    // Group rows by the GROUP BY key (single global group when absent).
    std::unordered_map<Row, size_t, RowGroupHash, RowGroupEq> group_of;
    std::vector<std::vector<const Row*>> groups;
    std::vector<Row> group_keys;
    if (stmt.group_by.empty()) {
      groups.emplace_back();
      group_keys.emplace_back();
      for (const Row& r : w.table.rows()) groups[0].push_back(&r);
    } else {
      // Group-key programs compiled once, evaluated per row.
      std::vector<PreparedValue> gkeys;
      gkeys.reserve(stmt.group_by.size());
      for (const auto& g : stmt.group_by) {
        gkeys.push_back(PrepareValue(*g, w.bindings, ctx));
      }
      for (const Row& r : w.table.rows()) {
        Row key;
        key.reserve(stmt.group_by.size());
        for (const PreparedValue& g : gkeys) {
          DV_ASSIGN_OR_RETURN(Value v, g.Eval(r));
          key.push_back(std::move(v));
        }
        auto [it, inserted] = group_of.emplace(key, groups.size());
        if (inserted) {
          groups.emplace_back();
          group_keys.push_back(std::move(key));
        }
        groups[it->second].push_back(&r);
      }
    }
    // Output programs compiled once. Per group, each expression's
    // aggregates are computed just before it runs — HAVING first, so a
    // group it rejects computes nothing more.
    const size_t width = w.table.schema().num_columns();
    const int agg_base = static_cast<int>(width);
    std::optional<GroupedExpr> having;
    if (stmt.having != nullptr) {
      having = PrepareGrouped(*stmt.having, w.bindings, agg_base,
                              /*as_predicate=*/true, ctx);
    }
    std::vector<GroupedExpr> items;
    for (const SelectItem& item : stmt.select_list) {
      items.push_back(PrepareGrouped(*item.expr, w.bindings, agg_base,
                                     /*as_predicate=*/false, ctx));
    }
    std::vector<GroupedExpr> order_items;
    for (const OrderItem& o : stmt.order_by) {
      order_items.push_back(PrepareGrouped(*o.expr, w.bindings, agg_base,
                                           /*as_predicate=*/false, ctx));
    }
    Row null_rep(width, Value::Null());
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      if ((since_check++ & 1023) == 0) DV_RETURN_IF_ERROR(ctx.CheckGuard());
      const std::vector<const Row*>& rows = groups[gi];
      Row rep = rows.empty() ? null_rep : *rows[0];
      if (having) {
        DV_RETURN_IF_ERROR(FillAggregates(*having, rows, width, &rep));
        DV_ASSIGN_OR_RETURN(TriBool t, having->program->EvalPredicate(rep));
        if (t != TriBool::kTrue) continue;
      }
      Row orow;
      orow.reserve(items.size());
      for (const GroupedExpr& item : items) {
        DV_RETURN_IF_ERROR(FillAggregates(item, rows, width, &rep));
        DV_ASSIGN_OR_RETURN(Value v, item.program->EvalValue(rep));
        orow.push_back(std::move(v));
      }
      if (!stmt.order_by.empty()) {
        Row key;
        for (size_t k = 0; k < stmt.order_by.size(); ++k) {
          int pos = order_output_pos(*stmt.order_by[k].expr);
          if (pos >= 0) {
            key.push_back(orow[pos]);
            continue;
          }
          DV_RETURN_IF_ERROR(
              FillAggregates(order_items[k], rows, width, &rep));
          DV_ASSIGN_OR_RETURN(Value v, order_items[k].program->EvalValue(rep));
          key.push_back(std::move(v));
        }
        order_keys.push_back(std::move(key));
      }
      out.AppendRowUnchecked(std::move(orow));
    }
  }

  DV_RETURN_IF_ERROR(
      ctx.ChargeRows(out.num_rows(), out.schema().num_columns()));

  if (stmt.distinct) out = out.Distinct();

  if (!stmt.order_by.empty() && !out.rows().empty()) {
    // DISTINCT + ORDER BY: recompute is unnecessary because distinct keeps
    // the first occurrence; but the key array then mismatches. Sort a
    // permutation of (key, row) pairs instead when sizes align; otherwise
    // fall back to sorting output rows by their own columns.
    if (order_keys.size() == out.num_rows()) {
      std::vector<size_t> perm(out.num_rows());
      for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
      std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
        for (size_t k = 0; k < stmt.order_by.size(); ++k) {
          int c = Value::TotalOrderCompare(order_keys[a][k], order_keys[b][k]);
          if (c != 0) return stmt.order_by[k].descending ? c > 0 : c < 0;
        }
        return false;
      });
      Table sorted(out.schema());
      sorted.Reserve(out.num_rows());
      for (size_t i : perm) sorted.AppendRowUnchecked(out.row(i));
      out = std::move(sorted);
    } else {
      out.SortRows();
    }
  }
  return ApplyLimit(std::move(out), stmt.limit);
}

}  // namespace dynview
