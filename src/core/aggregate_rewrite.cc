#include "core/aggregate_rewrite.h"

#include <set>

#include "common/str_util.h"
#include "core/normalize.h"
#include "sql/parser.h"

namespace dynview {

namespace {

/// Locates the single aggregate select item; fails on zero or several.
Result<size_t> SingleAggregatePosition(const SelectStmt& stmt) {
  int pos = -1;
  for (size_t i = 0; i < stmt.select_list.size(); ++i) {
    if (stmt.select_list[i].expr->ContainsAggregate()) {
      if (stmt.select_list[i].expr->kind != ExprKind::kAgg) {
        return Status::Unsupported(
            "aggregate must be a top-level select item");
      }
      if (pos >= 0) {
        return Status::Unsupported("more than one aggregate select item");
      }
      pos = static_cast<int>(i);
    }
  }
  if (pos < 0) return Status::Unsupported("no aggregate select item");
  return static_cast<size_t>(pos);
}

/// The re-aggregation function for view aggregate `g` answering query
/// aggregate `f`; nullopt if the pair is not re-aggregable.
Result<AggFunc> ReAggregation(AggFunc view_func, AggFunc query_func,
                              bool exact_groups,
                              bool allow_avg_reaggregation) {
  auto norm = [](AggFunc f) {
    return f == AggFunc::kCountStar ? AggFunc::kCount : f;
  };
  if (norm(view_func) != norm(query_func)) {
    return Status::Unsupported(
        std::string("aggregate mismatch: view computes ") +
        AggFuncName(view_func) + ", query asks for " +
        AggFuncName(query_func));
  }
  switch (norm(view_func)) {
    case AggFunc::kMax:
      return AggFunc::kMax;
    case AggFunc::kMin:
      return AggFunc::kMin;
    case AggFunc::kSum:
      return AggFunc::kSum;
    case AggFunc::kCount:
      return AggFunc::kSum;  // Counts of sub-groups add up.
    case AggFunc::kAvg:
      if (exact_groups) return AggFunc::kAvg;  // Degenerate re-aggregation.
      if (allow_avg_reaggregation) return AggFunc::kAvg;
      return Status::Unsupported(
          "AVG cannot be re-aggregated over coarser groups without the "
          "uniform-group-size assumption (see Ex. 5.3 discussion)");
    default:
      return Status::Unsupported("unsupported aggregate");
  }
}

}  // namespace

Result<std::unique_ptr<CreateViewStmt>> StripViewAggregation(
    const CreateViewStmt& view) {
  std::unique_ptr<CreateViewStmt> core = view.Clone();
  if (core->query == nullptr) return Status::BindError("view has no body");
  for (SelectItem& item : core->query->select_list) {
    if (item.expr->kind == ExprKind::kAgg) {
      if (item.expr->agg_func == AggFunc::kCountStar || !item.expr->left) {
        return Status::Unsupported(
            "COUNT(*) views cannot expose a base column to re-aggregate");
      }
      item.expr = item.expr->left->Clone();
    } else if (item.expr->ContainsAggregate()) {
      return Status::Unsupported("aggregate must be a top-level select item");
    }
  }
  core->query->group_by.clear();
  core->query->having.reset();
  return core;
}

Result<TranslationResult> AggregateViewRewriter::Rewrite(
    const ViewDefinition& view, const std::string& query_sql,
    bool allow_avg_reaggregation) const {
  DV_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> query,
                      Parser::ParseSelect(query_sql));
  return Rewrite(view, *query, allow_avg_reaggregation);
}

Result<TranslationResult> AggregateViewRewriter::Rewrite(
    const ViewDefinition& view, const SelectStmt& query_template,
    bool allow_avg_reaggregation) const {
  if (!view.IsAggregateView()) {
    return Status::InvalidArgument("view does not aggregate; use Alg. 5.1");
  }
  // --- Decompose the view. ---------------------------------------------------
  DV_ASSIGN_OR_RETURN(size_t view_agg_pos,
                      SingleAggregatePosition(view.body()));
  AggFunc view_func = view.body().select_list[view_agg_pos].expr->agg_func;
  if (view.body().having != nullptr) {
    return Status::Unsupported("views with HAVING are not re-aggregable");
  }
  std::set<std::string> view_group_vars;  // Lowercased.
  for (const auto& g : view.body().group_by) {
    if (g->kind != ExprKind::kVarRef) {
      return Status::Unsupported("view group keys must be variables");
    }
    view_group_vars.insert(ToLower(g->var_name));
  }
  DV_ASSIGN_OR_RETURN(std::unique_ptr<CreateViewStmt> core_stmt,
                      StripViewAggregation(view.stmt()));
  DV_ASSIGN_OR_RETURN(ViewDefinition core,
                      ViewDefinition::Create(*core_stmt, *catalog_,
                                             default_db_));
  // The agg-argument variable, post-normalization, is Dom of the agg
  // position in the stripped core.
  std::string agg_arg_var = ToLower(core.dom_of(view_agg_pos));

  // --- Decompose the query. --------------------------------------------------
  std::unique_ptr<SelectStmt> query = query_template.Clone();
  if (query->union_next != nullptr || query->distinct) {
    return Status::Unsupported("aggregate rewriting covers single-block "
                               "non-DISTINCT queries");
  }
  if (query->having != nullptr) {
    return Status::Unsupported(
        "HAVING over re-aggregated values is not supported");
  }
  DV_ASSIGN_OR_RETURN(BoundQuery qbq,
                      NormalizeQuery(query.get(), *catalog_, default_db_));
  (void)qbq;
  DV_ASSIGN_OR_RETURN(size_t query_agg_pos, SingleAggregatePosition(*query));
  AggFunc query_func = query->select_list[query_agg_pos].expr->agg_func;
  std::unique_ptr<Expr> query_agg_arg;
  if (query->select_list[query_agg_pos].expr->left) {
    query_agg_arg = query->select_list[query_agg_pos].expr->left->Clone();
    if (query_agg_arg->kind != ExprKind::kVarRef) {
      return Status::Unsupported("query aggregate argument must be a column");
    }
  }

  // Q°: the query with the aggregate replaced by its argument and grouping
  // dropped; group keys are kept in the select list so condition 2 covers
  // them.
  std::unique_ptr<SelectStmt> qcore = query->Clone();
  if (query_agg_arg) {
    qcore->select_list[query_agg_pos].expr = query_agg_arg->Clone();
  } else {
    return Status::Unsupported(
        "COUNT(*) queries need a COUNT view column; use an explicit column");
  }
  qcore->group_by.clear();
  qcore->having.reset();
  qcore->order_by.clear();
  DV_ASSIGN_OR_RETURN(BoundQuery cbq, Binder::BindBranch(qcore.get()));

  // --- Containment: φ from the stripped view core into Q°. -------------------
  UsabilityChecker checker(catalog_, default_db_, guard_);
  DV_ASSIGN_OR_RETURN(UsabilityResult usable,
                      checker.CheckSetUsable(core, *qcore, cbq));
  if (!usable.usable) {
    return Status::InvalidArgument("aggregate view not usable: " +
                                   usable.reason);
  }
  const VariableMapping& phi = usable.phi;

  // The query's aggregate argument must be exactly the view's aggregate
  // input (re-aggregating a different column is meaningless).
  if (!EqualsIgnoreCase(phi.Apply(agg_arg_var),
                        query_agg_arg->var_name)) {
    return Status::InvalidArgument(
        "query aggregates '" + query_agg_arg->var_name +
        "' but the view pre-aggregates '" + phi.Apply(agg_arg_var) + "'");
  }

  // Query group keys must be (recoverable images of) view group keys, and
  // residual predicates may touch only view group columns.
  std::set<std::string> group_images;  // Lowercased φ(view group var).
  for (const std::string& g : view_group_vars) {
    std::string image = phi.Apply(g);
    if (!image.empty()) group_images.insert(ToLower(image));
  }
  size_t matched_groups = 0;
  for (const auto& g : query->group_by) {
    if (g->kind != ExprKind::kVarRef) {
      return Status::Unsupported("query group keys must be variables");
    }
    std::string key = ToLower(g->var_name);
    auto it = usable.supplied_by.find(key);
    std::string resolved = it != usable.supplied_by.end() ? it->second : key;
    if (group_images.count(ToLower(resolved)) == 0) {
      return Status::InvalidArgument(
          "query groups by '" + g->var_name +
          "', which is not a view grouping column — the view is too coarse");
    }
    ++matched_groups;
  }
  bool exact_groups = matched_groups == view_group_vars.size();
  for (const auto& rc : usable.residual) {
    std::vector<std::string> refs;
    rc->CollectVarRefs(&refs);
    for (const std::string& r : refs) {
      std::string key = ToLower(r);
      if (group_images.count(key) > 0) continue;       // Post-filterable.
      if (key == ToLower(phi.Apply(agg_arg_var))) {
        return Status::InvalidArgument(
            "residual predicate on the pre-aggregated column '" + r +
            "' cannot be applied after aggregation");
      }
      // Variables of other (uncovered) tables are fine.
    }
  }
  DV_ASSIGN_OR_RETURN(
      AggFunc reagg,
      ReAggregation(view_func, query_func, exact_groups,
                    allow_avg_reaggregation));

  // --- Assemble Q′: translate Q° onto the view, then re-aggregate. ----------
  QueryTranslator translator(catalog_, default_db_);
  DV_ASSIGN_OR_RETURN(TranslationResult spj,
                      translator.Translate(core, *qcore, cbq, usable));
  SelectStmt& out = *spj.query;
  // Restore the aggregate select item, re-aggregating the view's value
  // column (which the translation exposes under φ(agg arg)).
  std::string value_var = phi.Apply(agg_arg_var);
  out.select_list[query_agg_pos].expr = Expr::MakeAgg(
      reagg, Expr::MakeVarRef(value_var), /*distinct=*/false);
  if (out.select_list[query_agg_pos].alias.empty()) {
    out.select_list[query_agg_pos].alias =
        ToLower(AggFuncName(query_func));
  }
  // Restore grouping (renamed through supplied_by where needed).
  for (const auto& g : query->group_by) {
    std::string key = ToLower(g->var_name);
    auto it = usable.supplied_by.find(key);
    out.group_by.push_back(Expr::MakeVarRef(
        it != usable.supplied_by.end() ? it->second : g->var_name));
  }
  return spj;
}

}  // namespace dynview
