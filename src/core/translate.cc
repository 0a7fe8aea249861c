#include "core/translate.h"

#include <set>

#include "common/str_util.h"
#include "core/normalize.h"
#include "sql/parser.h"

namespace dynview {

namespace {

/// Replaces variable references per `renames` (lowercased key → new name).
void RenameRefs(Expr* e, const std::map<std::string, std::string>& renames) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kVarRef) {
    auto it = renames.find(ToLower(e->var_name));
    if (it != renames.end()) e->var_name = it->second;
    return;
  }
  RenameRefs(e->left.get(), renames);
  RenameRefs(e->right.get(), renames);
}

bool ExprUsesVar(const Expr& e, const std::string& var_lower) {
  if (e.kind == ExprKind::kVarRef) return ToLower(e.var_name) == var_lower;
  if (e.left && ExprUsesVar(*e.left, var_lower)) return true;
  if (e.right && ExprUsesVar(*e.right, var_lower)) return true;
  return false;
}

bool StmtUsesVar(const SelectStmt& s, const std::string& var_lower) {
  for (const SelectItem& item : s.select_list) {
    if (ExprUsesVar(*item.expr, var_lower)) return true;
  }
  if (s.where && ExprUsesVar(*s.where, var_lower)) return true;
  for (const auto& g : s.group_by) {
    if (ExprUsesVar(*g, var_lower)) return true;
  }
  if (s.having && ExprUsesVar(*s.having, var_lower)) return true;
  for (const OrderItem& o : s.order_by) {
    if (ExprUsesVar(*o.expr, var_lower)) return true;
  }
  return false;
}

}  // namespace

Result<TranslationResult> QueryTranslator::TranslateSql(
    const ViewDefinition& view, const std::string& query_sql,
    bool multiset) const {
  DV_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt,
                      Parser::ParseSelect(query_sql));
  DV_ASSIGN_OR_RETURN(BoundQuery bq,
                      NormalizeQuery(stmt.get(), *catalog_, default_db_));
  UsabilityChecker checker(catalog_, default_db_, guard_);
  Result<UsabilityResult> usable =
      multiset ? checker.CheckMultisetUsable(view, *stmt, bq)
               : checker.CheckSetUsable(view, *stmt, bq);
  DV_RETURN_IF_ERROR(usable.status());
  if (!usable.value().usable) {
    return Status::InvalidArgument("view not usable: " +
                                   usable.value().reason);
  }
  return Translate(view, *stmt, bq, usable.value());
}

Result<TranslationResult> QueryTranslator::TranslateSqlAll(
    const ViewDefinition& view, const std::string& query_sql,
    bool multiset) const {
  DV_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt,
                      Parser::ParseSelect(query_sql));
  return TranslateAll(view, *stmt, multiset);
}

Result<TranslationResult> QueryTranslator::TranslateAll(
    const ViewDefinition& view, const SelectStmt& query, bool multiset) const {
  std::unique_ptr<SelectStmt> stmt = query.Clone();
  DV_ASSIGN_OR_RETURN(BoundQuery bq,
                      NormalizeQuery(stmt.get(), *catalog_, default_db_));
  UsabilityChecker checker(catalog_, default_db_, guard_);
  TranslationResult aggregate;
  size_t applications = 0;
  while (true) {
    Result<UsabilityResult> usable =
        multiset ? checker.CheckMultisetUsable(view, *stmt, bq)
                 : checker.CheckSetUsable(view, *stmt, bq);
    DV_RETURN_IF_ERROR(usable.status());
    if (!usable.value().usable) {
      if (applications == 0) {
        return Status::InvalidArgument("view not usable: " +
                                       usable.value().reason);
      }
      break;
    }
    DV_ASSIGN_OR_RETURN(TranslationResult step,
                        Translate(view, *stmt, bq, usable.value()));
    aggregate.view_tuple_var = step.view_tuple_var;
    for (std::string& tv : step.covered_tuple_vars) {
      aggregate.covered_tuple_vars.push_back(std::move(tv));
    }
    aggregate.absorbed_conjuncts += step.absorbed_conjuncts;
    aggregate.residual_conjuncts = step.residual_conjuncts;
    stmt = std::move(step.query);
    DV_ASSIGN_OR_RETURN(bq, Binder::BindBranch(stmt.get()));
    ++applications;
  }
  aggregate.query = std::move(stmt);
  return aggregate;
}

Result<TranslationResult> QueryTranslator::Translate(
    const ViewDefinition& view, const SelectStmt& query, const BoundQuery& bq,
    const UsabilityResult& usability) const {
  (void)bq;
  if (!usability.usable) {
    return Status::InvalidArgument("Translate called with unusable view");
  }
  const VariableMapping& phi = usability.phi;

  TranslationResult out;
  out.query = query.Clone();
  SelectStmt& q = *out.query;

  // --- Step 1(a): remove φ(Tables(V)) and their domain declarations. ------
  std::set<std::string> covered;  // Lowercased covered tuple variables.
  for (const std::string& tv : view.tuple_vars()) {
    std::string image = phi.Apply(tv);
    if (image.empty()) {
      return Status::Internal("tuple variable '" + tv + "' unmapped");
    }
    covered.insert(ToLower(image));
  }
  std::vector<FromItem> kept;
  for (FromItem& f : q.from_items) {
    if (f.kind == FromItemKind::kTupleVar && covered.count(ToLower(f.var))) {
      out.covered_tuple_vars.push_back(f.var);
      continue;
    }
    if (f.kind == FromItemKind::kDomainVar && covered.count(ToLower(f.tuple))) {
      continue;
    }
    kept.push_back(std::move(f));
  }
  q.from_items = std::move(kept);

  // Fresh tuple variable for the view scan (step 1d).
  std::set<std::string> taken;
  for (const FromItem& f : query.from_items) taken.insert(ToLower(f.var));
  std::string vt = "VT";
  int n = 0;
  while (taken.count(ToLower(vt)) > 0) vt = "VT" + std::to_string(n++);
  out.view_tuple_var = vt;

  // --- Steps 1(b)-(e): declare the view access. ----------------------------
  std::vector<FromItem> access;
  NameTerm db_ref;  // How Q′ refers to the view's database.
  if (view.db_term().empty()) {
    db_ref = NameTerm(default_db_);
  } else if (view.db_term().is_variable) {
    std::string image = phi.Apply(view.db_term().text);
    FromItem dv;
    dv.kind = FromItemKind::kDatabaseVar;
    dv.var = image;
    access.push_back(std::move(dv));
    db_ref = NameTerm(image);
    db_ref.is_variable = true;
  } else {
    db_ref = view.db_term();
  }
  NameTerm rel_ref;
  if (view.rel_term().is_variable) {
    std::string image = phi.Apply(view.rel_term().text);
    FromItem rv;
    rv.kind = FromItemKind::kRelationVar;
    rv.db = db_ref;
    rv.var = image;
    access.push_back(std::move(rv));
    rel_ref = NameTerm(image);
    rel_ref.is_variable = true;
  } else {
    rel_ref = view.rel_term();
  }
  // Attribute variables (step 1e, declaration part) come before the tuple
  // scan for readability; the binder accepts either order.
  std::vector<size_t> pivot_positions;
  for (size_t i = 0; i < view.att_terms().size(); ++i) {
    if (!view.att_terms()[i].is_variable) continue;
    pivot_positions.push_back(i);
    FromItem av;
    av.kind = FromItemKind::kAttributeVar;
    av.db = db_ref;
    av.rel = rel_ref;
    av.var = phi.Apply(view.att_terms()[i].text);
    access.push_back(std::move(av));
  }
  FromItem scan;
  scan.kind = FromItemKind::kTupleVar;
  scan.db = db_ref;
  scan.rel = rel_ref;
  scan.var = vt;
  access.push_back(std::move(scan));
  // Domain declarations for every view output attribute (step 1e).
  std::set<std::string> declared;
  for (size_t i = 0; i < view.att_terms().size(); ++i) {
    const NameTerm& att = view.att_terms()[i];
    std::string dom_image = phi.Apply(view.dom_of(i));
    if (dom_image.empty()) {
      return Status::Internal("Dom(" + att.text + ") unmapped");
    }
    if (!declared.insert(ToLower(dom_image)).second) {
      return Status::Unsupported(
          "two view output positions map to one query variable");
    }
    FromItem dv;
    dv.kind = FromItemKind::kDomainVar;
    dv.tuple = vt;
    if (att.is_variable) {
      dv.attr = NameTerm(phi.Apply(att.text));
      dv.attr.is_variable = true;
    } else {
      dv.attr = att;
    }
    dv.var = dom_image;
    access.push_back(std::move(dv));
  }
  for (FromItem& f : access) q.from_items.push_back(std::move(f));

  // --- Step 3: WHERE := Conds′. --------------------------------------------
  std::vector<std::unique_ptr<Expr>> residual;
  for (const auto& rc : usability.residual) residual.push_back(rc->Clone());
  out.residual_conjuncts = residual.size();
  {
    std::vector<const Expr*> qconds;
    CollectConjuncts(query.where.get(), &qconds);
    out.absorbed_conjuncts = qconds.size() - residual.size();
  }

  // --- Step 2: replace needed variables by their Out(V) suppliers. ---------
  std::map<std::string, std::string> renames;
  for (const auto& [needed, supplier] : usability.supplied_by) {
    if (needed != ToLower(supplier)) renames[needed] = supplier;
  }
  for (SelectItem& item : q.select_list) {
    // A supplier substitution must not change the answer's column name:
    // pin the original name as an alias before rewriting the reference.
    if (item.alias.empty() && item.expr->kind == ExprKind::kVarRef &&
        renames.count(ToLower(item.expr->var_name)) > 0) {
      item.alias = item.expr->var_name;
    }
    RenameRefs(item.expr.get(), renames);
  }
  for (auto& g : q.group_by) RenameRefs(g.get(), renames);
  if (q.having) RenameRefs(q.having.get(), renames);
  for (OrderItem& o : q.order_by) RenameRefs(o.expr.get(), renames);

  // --- Step 4: NULL-rejection for pivoted values. --------------------------
  // Attribute-variable views pad absent labels with NULL (Sec. 3.1); when
  // the pivoted value participates in the answer, those padding rows must
  // be dropped (the paper's "add φ(dom(A)) ≠ ∅").
  q.where = AndChain(std::move(residual));
  // The attribute variable of a pivot access ranges over ALL attributes of
  // the materialized view, including the constant ones; exclude those
  // explicitly (the Fig. 2 v3 `where A <> 'date'` guard, implicit in the
  // paper's Alg. 5.1).
  for (size_t p : pivot_positions) {
    std::string attr_image = phi.Apply(view.att_terms()[p].text);
    for (size_t i = 0; i < view.att_terms().size(); ++i) {
      if (i == p || view.att_terms()[i].is_variable) continue;
      auto guard = Expr::MakeCompare(
          BinaryOp::kNotEq, Expr::MakeVarRef(attr_image),
          Expr::MakeLiteral(Value::String(view.att_terms()[i].text)));
      if (q.where) {
        q.where = Expr::MakeBinary(ExprKind::kLogic, BinaryOp::kAnd,
                                   std::move(q.where), std::move(guard));
      } else {
        q.where = std::move(guard);
      }
    }
  }
  for (size_t p : pivot_positions) {
    std::string dom_image = phi.Apply(view.dom_of(p));
    if (StmtUsesVar(q, ToLower(dom_image))) {
      auto not_null =
          Expr::MakeIsNull(Expr::MakeVarRef(dom_image), /*negated=*/true);
      if (q.where) {
        q.where = Expr::MakeBinary(ExprKind::kLogic, BinaryOp::kAnd,
                                   std::move(q.where), std::move(not_null));
      } else {
        q.where = std::move(not_null);
      }
    }
  }
  return out;
}

}  // namespace dynview
