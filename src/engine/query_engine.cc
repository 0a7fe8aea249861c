#include "engine/query_engine.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
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

using Program = Pipeline::Program;

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

/// Computes one aggregate over the rows of a group.
Result<Value> ComputeAggregate(const GroupedExpr::Agg& agg,
                               const std::vector<const Row*>& rows) {
  if (agg.func == AggFunc::kCountStar) {
    return Value::Int(static_cast<int64_t>(rows.size()));
  }
  std::vector<Value> values;
  values.reserve(rows.size());
  for (const Row* r : rows) {
    DV_ASSIGN_OR_RETURN(Value v, agg.arg.Eval(*r));
    if (!v.is_null()) values.push_back(std::move(v));
  }
  if (agg.distinct) {
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
  switch (agg.func) {
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
      if (agg.func == AggFunc::kAvg) {
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
        bool take = agg.func == AggFunc::kMin ? cmp < 0 : cmp > 0;
        if (take) best = values[i];
      }
      return best;
    }
    default:
      return Status::Internal("bad aggregate");
  }
}

GroupedExpr PrepareGrouped(const Expr& e, const ColumnBindings& b,
                           int agg_base, bool as_predicate,
                           const ExecContext& ctx) {
  GroupedExpr g;
  g.program = PrepareProgram(e, b, as_predicate, ctx, agg_base);
  std::vector<const Expr*> aggs;
  CollectAggregates(e, &aggs);
  for (const Expr* a : aggs) {
    GroupedExpr::Agg agg;
    agg.func = a->agg_func;
    agg.distinct = a->agg_distinct;
    if (a->agg_func != AggFunc::kCountStar) {
      agg.arg = PrepareValue(*a->left, b, ctx);
    }
    g.aggs.push_back(std::move(agg));
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
    DV_ASSIGN_OR_RETURN((*rep)[width + k], ComputeAggregate(g.aggs[k], rows));
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

/// Records the failpoint trips injected while alive as a counter delta on
/// destruction. Uses Add (not Set) so several calls under one observer
/// accumulate; the underlying count is process-global, so the delta
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

Table ApplyLimit(Table t, int64_t limit) {
  // In-place truncation: the kept prefix is never copied.
  if (limit >= 0) t.Truncate(static_cast<size_t>(limit));
  return t;
}

std::string DatabaseOf(const FromItem& f, const std::string& default_db) {
  return f.db.empty() ? default_db : f.db.text;
}

/// The relation `db::rel` of `snap`, or null. A build-time peek: it never
/// trips the catalog.resolve failpoint, which fires when a run resolves the
/// relation.
const Table* Peek(const CatalogSnapshot& snap, const std::string& db,
                  const std::string& rel) {
  Result<const Database*> d = snap.GetDatabase(db);
  if (!d.ok()) return nullptr;
  Result<const Table*> t = d.value()->GetTable(rel);
  return t.ok() ? t.value() : nullptr;
}

/// True if any of `relations` has more rows than the morsel threshold — the
/// cheap test for whether spinning up workers can pay off on a run.
bool HasLargeScan(
    const CatalogSnapshot& snap,
    const std::vector<std::pair<std::string, std::string>>& relations,
    size_t threshold) {
  for (const auto& [db, rel] : relations) {
    const Table* t = Peek(snap, db, rel);
    if (t != nullptr && t->num_rows() > threshold) return true;
  }
  return false;
}

/// The result of a fan-out no grounding contributes to: the statement's
/// output names, untyped (`*` cannot be expanded without a grounding).
Result<Schema> EmptyResultSchema(const SelectStmt& stmt) {
  std::vector<Column> cols;
  for (size_t i = 0; i < stmt.select_list.size(); ++i) {
    if (stmt.select_list[i].expr->kind == ExprKind::kStar) {
      return Status::Unsupported(
          "SELECT * requires at least one schema-variable grounding");
    }
    cols.emplace_back(OutputName(stmt.select_list[i], i), TypeKind::kNull);
  }
  return Schema(std::move(cols));
}

/// Evaluates the `conjuncts` that reference no column (e.g. grounded label
/// comparisons such as 'price' <> 'date') into `run`, in order. Their
/// programs are compiled uncached: grounded labels differ per grounding and
/// would flood the program memo.
void EvalConstants(const std::vector<const Expr*>& conjuncts,
                   PipelineRun* run) {
  ColumnBindings empty;
  Row no_row;
  for (const Expr* c : conjuncts) {
    if (!CanEvaluate(*c, empty)) continue;
    Result<TriBool> t =
        CompiledExpr::Compile(*c, empty, /*as_predicate=*/true)
            ->EvalPredicate(no_row);
    if (!t.ok()) {
      run->constant_error = t.status();
      return;
    }
    if (t.value() != TriBool::kTrue) run->infeasible = true;
  }
}

bool IsLabelRef(const Expr& e, const BoundQuery& bq) {
  if (e.kind != ExprKind::kVarRef) return false;
  const BoundVariable* v = bq.Find(e.var_name);
  return v != nullptr && IsSchemaVarClass(v->cls);
}

/// Adds to `vars` (lowercased) the schema variables grounding substitutes
/// into `e`: schema-variable value references and attribute-variable column
/// references.
void CollectLabelVars(const Expr& e, const BoundQuery& bq,
                      std::set<std::string>* vars) {
  if (IsLabelRef(e, bq)) {
    vars->insert(ToLower(e.var_name));
  } else if (e.kind == ExprKind::kColumnRef && e.column.is_variable) {
    vars->insert(ToLower(e.column.text));
  }
  if (e.left != nullptr) CollectLabelVars(*e.left, bq, vars);
  if (e.right != nullptr) CollectLabelVars(*e.right, bq, vars);
}

/// True if `e` references no column once grounded: CanEvaluate over no
/// bindings, with schema-variable references counting as the literals they
/// become.
bool GroundsToConstant(const Expr& e, const BoundQuery& bq) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kVarRef:
      return IsLabelRef(e, bq);
    case ExprKind::kColumnRef:
    case ExprKind::kStar:
      return false;
    default:
      return (e.left == nullptr || GroundsToConstant(*e.left, bq)) &&
             (e.right == nullptr || GroundsToConstant(*e.right, bq));
  }
}

/// Compiles the first-order `stmt` into a pipeline. Relations are peeked in
/// `snap`, or all stand for the one `input` schema (the global layer of a
/// higher-order branch). Select item `i` with `label_items[i]` set projects
/// the grounding's next label value (Out::kLabel).
Pipeline BuildPipeline(const SelectStmt& stmt,
                       const std::vector<bool>& label_items,
                       const CatalogSnapshot* snap, const Schema* input,
                       const std::string& default_db,
                       const ExecContext& ctx) {
  Pipeline p;
  p.distinct = stmt.distinct;
  p.limit = stmt.limit;
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(stmt.where.get(), &conjuncts);
  // Constant conjuncts are evaluated per run (EvalConstants).
  std::vector<bool> applied(conjuncts.size(), false);
  {
    ColumnBindings empty;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      applied[i] = CanEvaluate(*conjuncts[i], empty);
    }
  }

  // Resolve every scan's relation and bindings first, stopping at the first
  // scan holding an error (the scans that precede it still get their
  // predicates below).
  struct ScanScope {
    const Schema* schema = nullptr;
    ColumnBindings bindings;
  };
  std::vector<ScanScope> scopes;
  for (const FromItem& f : stmt.from_items) {
    if (f.kind != FromItemKind::kTupleVar) continue;
    Pipeline::Scan& scan = p.scans.emplace_back();
    if (f.db.is_variable || f.rel.is_variable) {
      scan.unresolved = Status::Internal(
          "schema variable survived grounding: " + f.ToString());
      break;
    }
    const Schema* schema = input;
    if (schema == nullptr) {
      const Table* t = Peek(*snap, DatabaseOf(f, default_db), f.rel.text);
      if (t == nullptr) {
        scan.missing = true;  // The run's resolution reports why.
        break;
      }
      schema = &t->schema();
    }
    scan.width = schema->num_columns();

    // Scan bindings for this tuple variable.
    ColumnBindings sb;
    for (size_t c = 0; c < schema->num_columns(); ++c) {
      sb.AddQualified(f.var, schema->column(c).name, static_cast<int>(c));
    }
    // Register domain variables projecting this tuple variable.
    for (const FromItem& d : stmt.from_items) {
      if (d.kind != FromItemKind::kDomainVar) continue;
      if (!EqualsIgnoreCase(d.tuple, f.var)) continue;
      if (d.attr.is_variable) {
        scan.bind_error = Status::Internal(
            "attribute variable survived grounding: " + d.ToString());
        break;
      }
      int idx = sb.LookupQualified(f.var, d.attr.text);
      if (idx < 0) {
        scan.bind_error = Status::BindError(
            "relation '" + f.rel.text + "' has no attribute '" + d.attr.text +
            "' (domain variable " + d.var + ")");
        break;
      }
      sb.AddNamed(d.var, idx);
    }
    if (!scan.bind_error.ok()) break;
    scopes.push_back(ScanScope{schema, std::move(sb)});
  }
  const bool scans_ok = scopes.size() == p.scans.size();

  // Each name resolves against the whole FROM scope before a conjunct is
  // placed: a bare name that is one scan's domain variable must not bind to
  // a same-named column of another scan (the self-join rewritings of
  // Fig. 11 declare `date` on one view scan and `U_date` on the other).
  // `within(e, lo, hi)` holds when every name of `e` that resolves in the
  // whole scope belongs to a scan in [lo, hi]; a name ambiguous there is
  // left to the scan-local check. A single scan has nothing to confuse.
  ColumnBindings scope;
  std::vector<int> scan_start;
  if (scopes.size() > 1) {
    for (const ScanScope& s : scopes) {
      scan_start.push_back(static_cast<int>(scope.num_columns()));
      scope.MergeShifted(s.bindings, static_cast<int>(scope.num_columns()));
      scope.set_num_columns(scan_start.back() + s.schema->num_columns());
    }
  }
  std::function<bool(const Expr&, int, int)> within =
      [&](const Expr& e, int lo, int hi) {
        if (scan_start.empty()) return true;
        int idx = -1;
        if (e.kind == ExprKind::kVarRef) {
          idx = scope.LookupBare(e.var_name);
        } else if (e.kind == ExprKind::kColumnRef && !e.column.is_variable) {
          idx = scope.LookupQualified(e.qualifier, e.column.text);
        }
        if (idx >= 0) {
          int owner = static_cast<int>(
              std::upper_bound(scan_start.begin(), scan_start.end(), idx) -
              scan_start.begin()) - 1;
          if (owner < lo || owner > hi) return false;
        }
        return (e.left == nullptr || within(*e.left, lo, hi)) &&
               (e.right == nullptr || within(*e.right, lo, hi));
      };

  // Join pipeline over tuple variables in declaration order.
  ColumnBindings wb;
  std::vector<Column> wcols;
  bool first = true;
  for (size_t k = 0; k < scopes.size(); ++k) {
    Pipeline::Scan& scan = p.scans[k];
    const ColumnBindings& sb = scopes[k].bindings;
    const int at = static_cast<int>(k);
    // Predicate pushdown, fused into the scan: pushed conjuncts apply while
    // reading base rows, so rows they reject are never materialized.
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (applied[i] || conjuncts[i]->ContainsAggregate()) continue;
      if (!within(*conjuncts[i], at, at) || !CanEvaluate(*conjuncts[i], sb)) {
        continue;
      }
      scan.pushed.push_back(
          PrepareProgram(*conjuncts[i], sb, /*as_predicate=*/true, ctx));
      scan.pushed_sql.push_back(conjuncts[i]->ToString());
      applied[i] = true;
    }
    if (first) {
      wb = std::move(scopes[k].bindings);  // Not read again.
      wcols = scopes[k].schema->columns();
      first = false;
      continue;
    }

    // Discover equi-join keys among the unapplied conjuncts.
    auto left_of = [&](const Expr& e) {
      return within(e, 0, at - 1) && CanEvaluate(e, wb);
    };
    auto right_of = [&](const Expr& e) {
      return within(e, at, at) && CanEvaluate(e, sb);
    };
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (applied[i]) continue;
      const Expr* c = conjuncts[i];
      if (c->kind != ExprKind::kCompare || c->op != BinaryOp::kEq) continue;
      const Expr* lkey = nullptr;
      const Expr* rkey = nullptr;
      if (left_of(*c->left) && right_of(*c->right)) {
        lkey = c->left.get();
        rkey = c->right.get();
      } else if (left_of(*c->right) && right_of(*c->left)) {
        lkey = c->right.get();
        rkey = c->left.get();
      } else {
        continue;
      }
      scan.lkeys.push_back(PrepareValue(*lkey, wb, ctx));
      scan.rkeys.push_back(PrepareValue(*rkey, sb, ctx));
      scan.key_sql.push_back(lkey->ToString() + " = " + rkey->ToString());
      applied[i] = true;
    }
    wb.MergeShifted(sb, static_cast<int>(wcols.size()));
    for (const Column& c : scopes[k].schema->columns()) wcols.push_back(c);

    // Conjuncts that have just become evaluable, one filter each.
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (applied[i] || conjuncts[i]->ContainsAggregate()) continue;
      if (!within(*conjuncts[i], 0, at) || !CanEvaluate(*conjuncts[i], wb)) {
        continue;
      }
      scan.post.push_back(
          PrepareProgram(*conjuncts[i], wb, /*as_predicate=*/true, ctx));
      scan.post_sql.push_back(conjuncts[i]->ToString());
      applied[i] = true;
    }
  }
  if (!scans_ok) return p;
  if (first) {
    p.tail_error = Status::BindError("query has no tuple variables in FROM");
    return p;
  }
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (!applied[i]) {
      p.tail_error = Status::BindError("unresolvable predicate: " +
                                       conjuncts[i]->ToString());
      return p;
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
    p.tail_error =
        Status::Unsupported("SELECT * cannot be combined with aggregation");
    return p;
  }
  p.width = wcols.size();
  std::vector<Column> out_cols;
  if (has_star) out_cols = wcols;
  for (size_t i = 0; i < stmt.select_list.size(); ++i) {
    if (stmt.select_list[i].expr->kind != ExprKind::kStar) {
      out_cols.emplace_back(OutputName(stmt.select_list[i], i),
                            TypeKind::kNull);
    }
  }
  p.out_schema = Schema(std::move(out_cols));

  // ORDER BY may reference a select-list alias; resolve those to output
  // positions (standard SQL), everything else evaluates in input context.
  std::unordered_map<std::string, size_t> alias_pos;
  for (size_t i = 0; i < stmt.select_list.size(); ++i) {
    alias_pos.emplace(ToLower(OutputName(stmt.select_list[i], i)), i);
  }
  auto order_output_pos = [&](const Expr& e) -> int {
    if (e.kind != ExprKind::kVarRef) return -1;
    // Input columns win over aliases only when resolvable; alias resolution
    // is the fallback for otherwise-unresolvable names.
    if (CanEvaluate(e, wb)) return -1;
    auto it = alias_pos.find(ToLower(e.var_name));
    if (it == alias_pos.end()) return -1;
    return static_cast<int>(it->second);
  };

  if (!has_agg) {
    int next_label = 0;
    for (size_t si = 0; si < stmt.select_list.size(); ++si) {
      const Expr& e = *stmt.select_list[si].expr;
      Pipeline::OutCol col;
      if (e.kind == ExprKind::kStar) {
        col.kind = Pipeline::Out::kStar;
      } else if (si < label_items.size() && label_items[si]) {
        col.kind = Pipeline::Out::kLabel;
        col.index = next_label++;
      } else {
        col.value = PrepareValue(e, wb, ctx);
        if (col.value.program != nullptr &&
            col.value.program->bare_slot() >= 0) {
          col.kind = Pipeline::Out::kSlot;
          col.index = col.value.program->bare_slot();
        }
      }
      p.proj.push_back(std::move(col));
    }
    for (const OrderItem& o : stmt.order_by) {
      Pipeline::OrderKey key;
      key.descending = o.descending;
      key.output_pos = order_output_pos(*o.expr);
      if (key.output_pos < 0) key.value = PrepareValue(*o.expr, wb, ctx);
      p.order.push_back(std::move(key));
    }
  } else {
    p.grouped = true;
    for (const auto& g : stmt.group_by) {
      p.group_keys.push_back(PrepareValue(*g, wb, ctx));
    }
    // Each grouped expression reads its aggregates from the slots past the
    // working row.
    const int agg_base = static_cast<int>(p.width);
    if (stmt.having != nullptr) {
      p.having = PrepareGrouped(*stmt.having, wb, agg_base,
                                /*as_predicate=*/true, ctx);
    }
    for (const SelectItem& item : stmt.select_list) {
      p.items.push_back(PrepareGrouped(*item.expr, wb, agg_base,
                                       /*as_predicate=*/false, ctx));
    }
    for (const OrderItem& o : stmt.order_by) {
      Pipeline::OrderKey key;
      key.descending = o.descending;
      key.output_pos = order_output_pos(*o.expr);
      if (key.output_pos < 0) {
        key.grouped = PrepareGrouped(*o.expr, wb, agg_base,
                                     /*as_predicate=*/false, ctx);
      }
      p.order.push_back(std::move(key));
    }
  }
  p.fused = p.scans.size() == 1 && !p.grouped;
  return p;
}

/// Projects one working row: appends the output row to `out` and, under
/// ORDER BY, its sort key to `keys`.
Status EmitRow(const Pipeline& p, const PipelineRun& run, const Row& r,
               Table* out, std::vector<Row>* keys) {
  Row orow;
  orow.reserve(p.out_schema.num_columns());
  for (const Pipeline::OutCol& c : p.proj) {
    switch (c.kind) {
      case Pipeline::Out::kStar:
        orow.insert(orow.end(), r.begin(), r.end());
        break;
      case Pipeline::Out::kSlot:
        orow.push_back(r[c.index]);
        break;
      case Pipeline::Out::kLabel:
        orow.push_back(run.labels[c.index]);
        break;
      case Pipeline::Out::kValue: {
        DV_ASSIGN_OR_RETURN(Value v, c.value.Eval(r));
        orow.push_back(std::move(v));
        break;
      }
    }
  }
  if (!p.order.empty()) {
    Row key;
    key.reserve(p.order.size());
    for (const Pipeline::OrderKey& k : p.order) {
      if (k.output_pos >= 0) {
        key.push_back(orow[k.output_pos]);
        continue;
      }
      DV_ASSIGN_OR_RETURN(Value v, k.value.Eval(r));
      key.push_back(std::move(v));
    }
    keys->push_back(std::move(key));
  }
  out->AppendRowUnchecked(std::move(orow));
  return Status::OK();
}

/// The fused scan of a single-scan pipeline: FilterEmit over the base rows
/// with the scan's pushed conjuncts, projecting each kept row straight into
/// its morsel's part; the parts merge in morsel order into `out`/`keys`.
Status ScanProject(const Pipeline& p, const PipelineRun& run, const Table& in,
                   const ExecContext& ctx, Table* out, std::vector<Row>* keys) {
  struct Part {
    Table out;
    std::vector<Row> keys;
  };
  std::vector<Part> parts(ctx.NumMorsels(in.num_rows()));
  for (Part& part : parts) part.out = Table(p.out_schema);
  DV_RETURN_IF_ERROR(FilterEmit(
      in, p.scans[0].pushed, ctx, [&](size_t morsel, const Row& r) {
        return EmitRow(p, run, r, &parts[morsel].out, &parts[morsel].keys);
      }));
  size_t total = 0;
  for (const Part& part : parts) total += part.out.num_rows();
  for (Part& part : parts) {
    DV_RETURN_IF_ERROR(out->AppendTable(std::move(part.out)));
    out->Reserve(total);  // Once: the first append adopts the part's rows.
    for (Row& k : part.keys) keys->push_back(std::move(k));
  }
  return Status::OK();
}

/// Projects every row of the joined working set `w` into `out`/`keys`.
Status ProjectRows(const Pipeline& p, const PipelineRun& run, const Table& w,
                   const ExecContext& ctx, Table* out, std::vector<Row>* keys) {
  out->Reserve(w.num_rows());
  size_t since_check = 0;
  for (const Row& r : w.rows()) {
    if (ctx.guard != nullptr && (since_check++ & 1023) == 0) {
      DV_RETURN_IF_ERROR(ctx.CheckGuard());
    }
    DV_RETURN_IF_ERROR(EmitRow(p, run, r, out, keys));
  }
  return Status::OK();
}

/// Groups `w` and evaluates the grouped output expressions into `out`.
Status GroupRows(const Pipeline& p, const Table& w, const ExecContext& ctx,
                 Table* out, std::vector<Row>* order_keys) {
  // Group rows by the GROUP BY key (single global group when absent).
  std::unordered_map<Row, size_t, RowGroupHash, RowGroupEq> group_of;
  std::vector<std::vector<const Row*>> groups;
  if (p.group_keys.empty()) {
    groups.emplace_back();
    for (const Row& r : w.rows()) groups[0].push_back(&r);
  } else {
    for (const Row& r : w.rows()) {
      Row key;
      key.reserve(p.group_keys.size());
      for (const PreparedValue& g : p.group_keys) {
        DV_ASSIGN_OR_RETURN(Value v, g.Eval(r));
        key.push_back(std::move(v));
      }
      auto [it, inserted] = group_of.emplace(std::move(key), groups.size());
      if (inserted) groups.emplace_back();
      groups[it->second].push_back(&r);
    }
  }
  // Per group, each expression's aggregates are computed just before it
  // runs — HAVING first, so a group it rejects computes nothing more.
  const size_t width = p.width;
  Row null_rep(width, Value::Null());
  size_t since_check = 0;
  for (const std::vector<const Row*>& rows : groups) {
    if ((since_check++ & 1023) == 0) DV_RETURN_IF_ERROR(ctx.CheckGuard());
    Row rep = rows.empty() ? null_rep : *rows[0];
    if (p.having) {
      DV_RETURN_IF_ERROR(FillAggregates(*p.having, rows, width, &rep));
      DV_ASSIGN_OR_RETURN(TriBool t, p.having->program->EvalPredicate(rep));
      if (t != TriBool::kTrue) continue;
    }
    Row orow;
    orow.reserve(p.items.size());
    for (const GroupedExpr& item : p.items) {
      DV_RETURN_IF_ERROR(FillAggregates(item, rows, width, &rep));
      DV_ASSIGN_OR_RETURN(Value v, item.program->EvalValue(rep));
      orow.push_back(std::move(v));
    }
    if (!p.order.empty()) {
      Row key;
      for (const Pipeline::OrderKey& k : p.order) {
        if (k.output_pos >= 0) {
          key.push_back(orow[k.output_pos]);
          continue;
        }
        DV_RETURN_IF_ERROR(FillAggregates(k.grouped, rows, width, &rep));
        DV_ASSIGN_OR_RETURN(Value v, k.grouped.program->EvalValue(rep));
        key.push_back(std::move(v));
      }
      order_keys->push_back(std::move(key));
    }
    out->AppendRowUnchecked(std::move(orow));
  }
  return Status::OK();
}

/// Runs pipeline `p` for `run`: resolves each relation by name through
/// `snap` (or reads `input` for the global layer), joins, then projects or
/// groups, and applies DISTINCT, ORDER BY and LIMIT. May run on a pool
/// worker (one grounding of a parallel fan-out); nested parallel regions
/// then degrade to inline loops inside ParallelFor.
Result<Table> RunPipeline(const Pipeline& p, const PipelineRun& run,
                          const Table* input, const ExecContext& ctx,
                          const CatalogSnapshot* snap) {
  DV_RETURN_IF_ERROR(run.constant_error);
  Table w;
  const Table* fused_in = nullptr;
  for (size_t i = 0; i < p.scans.size(); ++i) {
    const Pipeline::Scan& scan = p.scans[i];
    // One guard check per pipeline step: scans and joins below run whole
    // operators, each of which re-checks internally at morsel granularity.
    DV_RETURN_IF_ERROR(ctx.CheckGuard());
    DV_RETURN_IF_ERROR(scan.unresolved);
    const Table* base = input;
    if (base == nullptr) {
      const auto& [db, rel] = run.relations[i];
      DV_ASSIGN_OR_RETURN(base, snap->ResolveTable(db, rel));
    }
    if (scan.missing || base->schema().num_columns() != scan.width) {
      return Status::Internal(
          "executable plan was built against another schema epoch");
    }
    DV_RETURN_IF_ERROR(scan.bind_error);
    if (p.fused) {
      fused_in = base;
      break;
    }
    Table s(base->schema());
    if (!run.infeasible) {
      DV_ASSIGN_OR_RETURN(s, FilterTable(*base, scan.pushed, ctx));
    }
    if (i == 0) {
      w = std::move(s);
      continue;
    }
    Table joined;
    if (!scan.lkeys.empty()) {
      DV_ASSIGN_OR_RETURN(joined,
                          JoinOnExprs(w, s, scan.lkeys, scan.rkeys, ctx));
    } else {
      DV_ASSIGN_OR_RETURN(joined, CrossProduct(w, s, ctx));
    }
    w = std::move(joined);
    for (const Program& c : scan.post) {
      DV_ASSIGN_OR_RETURN(w, FilterTable(w, {c}, ctx));
    }
  }
  DV_RETURN_IF_ERROR(p.tail_error);

  Table out(p.out_schema);
  std::vector<Row> order_keys;
  if (p.grouped) {
    DV_RETURN_IF_ERROR(GroupRows(p, w, ctx, &out, &order_keys));
  } else if (!p.fused) {
    DV_RETURN_IF_ERROR(ProjectRows(p, run, w, ctx, &out, &order_keys));
  } else if (!run.infeasible) {
    DV_RETURN_IF_ERROR(ScanProject(p, run, *fused_in, ctx, &out, &order_keys));
  }
  DV_RETURN_IF_ERROR(
      ctx.ChargeRows(out.num_rows(), out.schema().num_columns()));

  if (p.distinct) out = out.Distinct();

  if (!p.order.empty() && !out.rows().empty()) {
    // DISTINCT keeps the first occurrence, so the key array then no longer
    // lines up with the rows: sort a permutation of (key, row) pairs when
    // sizes align, else fall back to sorting rows by their own columns.
    if (order_keys.size() == out.num_rows()) {
      std::vector<size_t> perm(out.num_rows());
      for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
      std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
        for (size_t k = 0; k < p.order.size(); ++k) {
          int c = Value::TotalOrderCompare(order_keys[a][k], order_keys[b][k]);
          if (c != 0) return p.order[k].descending ? c > 0 : c < 0;
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
  return ApplyLimit(std::move(out), p.limit);
}

/// Appends `text` to a slot-layout key, length-prefixed so that no two
/// sequences of parts give the same key.
void AppendKeyPart(const std::string& text, std::string* key) {
  *key += std::to_string(text.size());
  *key += ':';
  *key += text;
}

/// The schema part of a grounding's slot-layout key: the columns of each
/// relation it scans, or `?` for one that does not resolve.
std::string SchemaKey(const CatalogSnapshot& snap,
                      const std::vector<std::pair<std::string, std::string>>&
                          relations) {
  std::string key;
  for (const auto& [db, rel] : relations) {
    key += '(';
    const Table* t = Peek(snap, db, rel);
    if (t == nullptr) {
      key += '?';
    } else {
      for (const Column& c : t->schema().columns()) {
        AppendKeyPart(c.name, &key);
        key += TypeKindName(c.type);
        key += ',';
      }
    }
    key += ')';
  }
  return key;
}

const PipelineRun& NoGrounding() {
  static const PipelineRun run;
  return run;
}

}  // namespace

Result<Table> QueryEngine::ExecuteSql(const std::string& sql,
                                      QueryContext* qc) {
  DV_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt,
                      Parser::ParseSelect(sql));
  return Execute(stmt.get(), qc);
}

std::shared_ptr<const CatalogSnapshot> QueryEngine::PinnedSnapshot(
    QueryContext* qc) const {
  // A pinned snapshot only applies when it was taken from this engine's own
  // catalog: engines over other catalogs must read their own catalog, not
  // the query's pin.
  if (qc != nullptr && qc->snapshot() != nullptr &&
      qc->snapshot()->origin() == catalog_) {
    return qc->snapshot();
  }
  return catalog_->Snapshot();
}

Result<Table> QueryEngine::Execute(SelectStmt* stmt, QueryContext* qc) {
  // The snapshot is pinned once here; the build and every branch, grounding
  // and operator of the run read this one version.
  const SnapshotRef snap = PinnedSnapshot(qc);
  const ExecContext octx = Ctx(qc, snap);
  ScopedSpan query_span(octx.trace, "query.execute");
  TripDelta trips{octx.metrics};
  // A 0 ms deadline or a pre-cancelled context trips before any work.
  if (qc != nullptr) DV_RETURN_IF_ERROR(qc->CheckGuards());
  std::shared_ptr<const ExecPlan> plan = BuildImpl(stmt, qc, snap);
  return RunImpl(*plan, qc, snap);
}

std::shared_ptr<const ExecPlan> QueryEngine::Build(SelectStmt* stmt,
                                                   QueryContext* qc) {
  const SnapshotRef snap = PinnedSnapshot(qc);
  TripDelta trips{Ctx(qc, snap).metrics};
  return BuildImpl(stmt, qc, snap);
}

Result<Table> QueryEngine::Run(const ExecPlan& plan, QueryContext* qc) {
  const SnapshotRef snap = PinnedSnapshot(qc);
  const ExecContext octx = Ctx(qc, snap);
  ScopedSpan query_span(octx.trace, "query.execute");
  TripDelta trips{octx.metrics};
  return RunImpl(plan, qc, snap);
}

std::shared_ptr<const ExecPlan> QueryEngine::BuildImpl(
    SelectStmt* stmt, QueryContext* qc, const SnapshotRef& snap) {
  auto plan = std::make_shared<ExecPlan>();
  const bool armed = FailPoints::AnyArmed();
  const ExecContext ctx = Ctx(qc, snap);
  for (SelectStmt* branch = stmt; branch != nullptr;
       branch = branch->union_next.get()) {
    BranchPlan& b = plan->branches.emplace_back();
    b.union_all = branch->union_all;
    Result<BoundQuery> bq = Binder::BindBranch(branch);
    if (!bq.ok()) {
      b.deferred = bq.status();
      break;  // The run stops here; later branches are never reached.
    }
    BuildBranch(*branch, bq.value(), ctx, *snap, &b);
  }
  plan->cacheable = !armed && !FailPoints::AnyArmed();
  return plan;
}

Result<Table> QueryEngine::RunImpl(const ExecPlan& plan, QueryContext* qc,
                                   const SnapshotRef& snap) {
  const ExecContext octx = Ctx(qc, snap);
  Table acc;
  bool first = true;
  bool pending_all = false;
  for (const BranchPlan& b : plan.branches) {
    // Guard check per UNION branch: a 0 ms deadline or a pre-cancelled
    // context trips before any evaluation starts.
    if (qc != nullptr) {
      DV_RETURN_IF_ERROR(qc->CheckGuards());
    }
    DV_RETURN_IF_ERROR(b.deferred);
    DV_ASSIGN_OR_RETURN(Table t, RunBranch(b, qc, snap));
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
    pending_all = b.union_all;
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
  // A caller's own program memo wins; otherwise the engine's default cache
  // dedups compiles within and across plan builds.
  ctx.programs = (qc != nullptr && qc->expr_programs() != nullptr)
                     ? qc->expr_programs().get()
                     : &default_programs_;
  return ctx;
}

void QueryEngine::BuildBranch(const SelectStmt& stmt, const BoundQuery& bq,
                              const ExecContext& ctx,
                              const CatalogSnapshot& snap,
                              BranchPlan* b) const {
  if (stmt.limit >= 0 && stmt.union_next != nullptr) {
    b->deferred = Status::Unsupported("LIMIT on a UNION branch");
    return;
  }
  b->higher_order = bq.higher_order;
  if (!bq.higher_order) {
    b->pipelines.push_back(
        BuildPipeline(stmt, {}, &snap, nullptr, default_db_, ctx));
    PipelineRun run;
    for (const FromItem& f : stmt.from_items) {
      if (f.kind != FromItemKind::kTupleVar) continue;
      run.relations.emplace_back(DatabaseOf(f, default_db_), f.rel.text);
    }
    std::vector<const Expr*> conjuncts;
    CollectConjuncts(stmt.where.get(), &conjuncts);
    EvalConstants(conjuncts, &run);
    b->runs.push_back(std::move(run));
    return;
  }

  // SchemaSQL semantics: grouping, aggregation, DISTINCT and ORDER BY apply
  // over the union of ALL groundings (Ex. 5.2: max(P) ranges across every
  // attribute instantiation). Such queries run in two layers: an
  // aggregate-free inner query evaluated per grounding and unioned, then
  // the global layer over the union.
  bool needs_global = stmt.distinct || !stmt.order_by.empty() ||
                      !stmt.group_by.empty() || stmt.having != nullptr;
  for (const SelectItem& item : stmt.select_list) {
    if (item.expr->ContainsAggregate()) needs_global = true;
  }
  if (!needs_global) {
    BuildFanout(stmt, bq, ctx, snap, b);
    b->limit = stmt.limit;
    return;
  }

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
      b->deferred = Status::Unsupported(
          "SELECT * cannot be combined with global higher-order "
          "aggregation/ordering");
      return;
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
  for (auto& e : base) {
    std::string name = expr_to_col[e->ToString()];
    inner->select_list.emplace_back(std::move(e), name);
  }
  if (inner->select_list.empty()) {
    // e.g. SELECT COUNT(*) — project a constant to keep row multiplicity.
    inner->select_list.emplace_back(Expr::MakeLiteral(Value::Int(1)), "bc0");
  }
  Result<BoundQuery> ibq = Binder::BindBranch(inner.get());
  if (!ibq.ok()) {
    b->deferred = ibq.status();
    return;
  }
  BuildFanout(*inner, ibq.value(), ctx, snap, b);

  // 3. Global layer over the unioned rows, read in place as one relation.
  std::vector<Column> inner_cols;
  for (const SelectItem& item : inner->select_list) {
    inner_cols.emplace_back(item.alias, TypeKind::kNull);
  }
  const Schema inner_schema(std::move(inner_cols));
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
  b->global_error = Binder::BindBranch(outer.get()).status();
  b->global =
      BuildPipeline(*outer, {}, nullptr, &inner_schema, default_db_, ctx);
}

void QueryEngine::BuildFanout(const SelectStmt& stmt, const BoundQuery& bq,
                              const ExecContext& ctx,
                              const CatalogSnapshot& snap,
                              BranchPlan* b) const {
  GroundingSet set = EnumerateGroundings(stmt, snap, default_db_);
  b->enumerated = set.enumerated;
  b->pruned = set.pruned;
  b->empty_schema = EmptyResultSchema(stmt);
  // A bare schema-variable reference in the select list projects the
  // grounding's label (SubstituteLabels turns it into a literal).
  std::vector<bool> label_items(stmt.select_list.size(), false);
  for (size_t i = 0; i < stmt.select_list.size(); ++i) {
    label_items[i] = IsLabelRef(*stmt.select_list[i].expr, bq);
  }

  // A grounding's pipeline depends only on the schemas it scans and on the
  // labels of the "shape" variables: those substituted anywhere but a label
  // projection, a tuple reference or a conjunct that grounds to a constant.
  // Label projections and constant-conjunct outcomes are per-run state, so
  // only the first grounding of each layout is substituted in full.
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(stmt.where.get(), &conjuncts);
  std::vector<const Expr*> constants;
  std::set<std::string> shape_vars;
  for (const Expr* c : conjuncts) {
    if (GroundsToConstant(*c, bq)) {
      constants.push_back(c);
    } else {
      CollectLabelVars(*c, bq, &shape_vars);
    }
  }
  for (size_t i = 0; i < stmt.select_list.size(); ++i) {
    if (!label_items[i]) {
      CollectLabelVars(*stmt.select_list[i].expr, bq, &shape_vars);
    }
  }
  for (const FromItem& f : stmt.from_items) {
    if (f.kind == FromItemKind::kDomainVar && f.attr.is_variable) {
      shape_vars.insert(ToLower(f.attr.text));
    }
  }

  std::map<std::string, uint32_t> layouts;
  for (const Grounding& g : set.groundings) {
    PipelineRun run;
    for (const auto& [var, chosen] : g.labels) {
      (void)var;
      if (!run.source.empty()) run.source += ",";
      run.source += chosen;
    }
    for (const FromItem& f : stmt.from_items) {
      if (f.kind != FromItemKind::kTupleVar) continue;
      FromItem t = f;
      GroundTupleRef(g, &t);
      run.relations.emplace_back(DatabaseOf(t, default_db_), t.rel.text);
    }
    for (size_t i = 0; i < label_items.size(); ++i) {
      if (!label_items[i]) continue;
      auto it = g.labels.find(ToLower(stmt.select_list[i].expr->var_name));
      run.labels.push_back(it == g.labels.end() ? Value::Null()
                                                : Value::String(it->second));
    }
    std::vector<std::unique_ptr<Expr>> grounded;
    std::vector<const Expr*> grounded_constants;
    for (const Expr* c : constants) {
      grounded.push_back(SubstituteLabels(*c, bq, g));
      grounded_constants.push_back(grounded.back().get());
    }
    EvalConstants(grounded_constants, &run);
    std::string key = SchemaKey(snap, run.relations);
    for (const std::string& v : shape_vars) {
      auto it = g.labels.find(v);
      AppendKeyPart(it == g.labels.end() ? "" : it->second, &key);
    }
    auto [it, inserted] = layouts.emplace(
        std::move(key), static_cast<uint32_t>(b->pipelines.size()));
    if (inserted) {
      b->pipelines.push_back(BuildPipeline(*SubstituteLabels(stmt, bq, g),
                                           label_items, &snap, nullptr,
                                           default_db_, ctx));
    }
    run.pipeline = it->second;
    b->runs.push_back(std::move(run));
  }
}

bool QueryEngine::WantsPool(const BranchPlan& b,
                            const CatalogSnapshot& snap) const {
  // Workers pay off for a fan-out, or for one scan large enough for the
  // morsel-driven operators to engage. Row counts are read at the run's
  // snapshot: a plan outlives the row counts of the version it was built at.
  if (b.higher_order && b.runs.size() > 1) return true;
  return !b.runs.empty() &&
         HasLargeScan(snap, b.runs[0].relations, exec_.morsel_rows);
}

Result<Table> QueryEngine::RunBranch(const BranchPlan& b, QueryContext* qc,
                                     const SnapshotRef& snap) {
  if (!b.higher_order) {
    // Workers are spun up lazily, and only when the run can use them.
    if (WantsPool(b, *snap)) EnsurePool();
    return RunPipeline(b.pipelines[0], b.runs[0], nullptr, Ctx(qc, snap),
                       snap.get());
  }
  DV_ASSIGN_OR_RETURN(Table rows, RunFanout(b, qc, snap));
  if (!b.global) return rows;
  DV_RETURN_IF_ERROR(b.global_error);
  return RunPipeline(*b.global, NoGrounding(), &rows, Ctx(qc, snap),
                     snap.get());
}

Result<Table> QueryEngine::RunFanout(const BranchPlan& b, QueryContext* qc,
                                     const SnapshotRef& snap) {
  // Observability context for the fan-out (pool intentionally not ensured
  // yet — only the trace/metrics sinks are used before evaluation starts).
  const ExecContext fctx = Ctx(qc, snap);
  fctx.Count(counters::kGroundingsEnumerated, b.enumerated);
  if (b.pruned > 0) fctx.Count(counters::kGroundingsPruned, b.pruned);
  if (b.runs.empty()) {
    DV_ASSIGN_OR_RETURN(Schema empty, b.empty_schema);
    return Table(std::move(empty));
  }

  // The grounding fan-out is embarrassingly parallel (the paper's Sec. 6
  // "orchestration around a conventional evaluator"): every grounding is an
  // independent first-order run of its pipeline. Results land in
  // per-grounding slots and merge in declaration order, so the output (rows
  // *and* their order, or the reported error) is identical to serial
  // evaluation.
  const size_t n = b.runs.size();
  ThreadPool* pool = WantsPool(b, *snap) ? EnsurePool() : nullptr;
  const ExecContext ctx = Ctx(qc, snap);
  fctx.Count(counters::kGroundingsEvaluated, n);
  ScopedSpan fanout_span(fctx.trace, "grounding.fanout",
                         std::to_string(n) + " groundings");
  const SourcePolicy policy =
      qc == nullptr ? SourcePolicy::kFailFast : qc->guards().source_policy;
  // Each grounding is one source's independent contribution (local-as-view:
  // a source relation per grounding), so source-level fault tolerance —
  // failpoint injection, retry with backoff, skip-and-report — applies at
  // exactly this granularity.
  auto eval_attempt = [&](size_t i) -> Result<Table> {
    const PipelineRun& run = b.runs[i];
    if (FailPoints::AnyArmed()) {
      // Match details are lowercased (like catalog.resolve's `db::rel`) so
      // failpoint specs don't depend on label casing.
      DV_RETURN_IF_ERROR(
          FailPoints::Check("engine.grounding", ToLower(run.source)));
    }
    return RunPipeline(b.pipelines[run.pipeline], run, nullptr, ctx,
                       snap.get());
  };
  std::vector<Result<Table>> parts(n, Result<Table>(Status::Internal("pending")));
  auto eval_one = [&](size_t i) {
    // May run on a pool worker: the explicit parent stitches the span under
    // the fan-out even though the thread-local nesting stack is empty here.
    ScopedSpan gspan(fctx.trace, "grounding", b.runs[i].source,
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
  if (pool != nullptr && n > 1) {
    pool->ParallelFor(n, eval_one,
                      qc == nullptr ? nullptr : qc->cancel_flag());
  } else {
    for (size_t i = 0; i < n; ++i) {
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
  // The union is sized once for every contribution.
  size_t total = 0;
  for (const Result<Table>& part : parts) {
    if (part.ok()) total += part.value().num_rows();
  }
  Table acc;
  bool first = true;
  for (size_t i = 0; i < n; ++i) {
    Result<Table>& part = parts[i];
    if (!part.ok()) {
      // Transient source failures degrade under kSkipAndReport: drop this
      // grounding's contribution and record which source was omitted.
      // Warnings are appended here, in declaration order on the driving
      // thread, so partial results are deterministic across thread counts.
      if (qc != nullptr && policy == SourcePolicy::kSkipAndReport &&
          IsTransient(part.status().code())) {
        fctx.Count(counters::kSourcesSkipped, 1);
        qc->AddWarning({b.runs[i].source, part.status()});
        continue;
      }
      return part.status();
    }
    // Grounding contributions counted in declaration order on the driving
    // thread: the bag-union size is identical across thread counts.
    fctx.Count(counters::kRowsUnioned, part.value().num_rows());
    if (first) {
      acc = std::move(part).value();
      acc.Reserve(total);
      first = false;
    } else {
      DV_RETURN_IF_ERROR(acc.AppendTable(std::move(part).value()));
    }
  }
  if (first) {
    // Every grounding was skipped: an empty (but well-formed) result whose
    // warnings name what is missing.
    DV_ASSIGN_OR_RETURN(Schema empty, b.empty_schema);
    acc = Table(std::move(empty));
  }
  return ApplyLimit(std::move(acc), b.limit);
}

}  // namespace dynview
