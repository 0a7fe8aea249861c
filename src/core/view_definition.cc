#include "core/view_definition.h"

#include <algorithm>

#include "common/str_util.h"
#include "core/normalize.h"
#include "sql/parser.h"

namespace dynview {

Result<ViewDefinition> ViewDefinition::FromSql(
    const std::string& create_view_sql, const CatalogReader& catalog,
    const std::string& default_db) {
  DV_ASSIGN_OR_RETURN(std::unique_ptr<CreateViewStmt> stmt,
                      Parser::ParseCreateView(create_view_sql));
  return Create(*stmt, catalog, default_db);
}

Result<ViewDefinition> ViewDefinition::Create(const CreateViewStmt& stmt,
                                              const CatalogReader& catalog,
                                              const std::string& default_db) {
  ViewDefinition v;
  v.stmt_ = stmt.Clone();
  if (v.stmt_->query == nullptr || v.stmt_->query->union_next != nullptr) {
    return Status::Unsupported(
        "Sec. 5 machinery covers single-block view bodies (no UNION)");
  }
  // Normalize the body to explicit-variable form, then (re)bind the view so
  // header labels resolve against the final variable set.
  DV_ASSIGN_OR_RETURN(BoundQuery body_bq,
                      NormalizeQuery(v.stmt_->query.get(), catalog,
                                     default_db));
  (void)body_bq;
  DV_ASSIGN_OR_RETURN(v.bound_, Binder::BindView(v.stmt_.get()));
  if (v.bound_.body.higher_order) {
    return Status::Unsupported(
        "view bodies with schema variables are outside the dynamic-view "
        "class (Def. 3.1); sources must be SQL or dynamic views on I");
  }
  if (v.stmt_->attrs.size() != v.stmt_->query->select_list.size()) {
    return Status::BindError("view header arity does not match select list");
  }

  // Dom(A) per output position.
  for (size_t i = 0; i < v.stmt_->query->select_list.size(); ++i) {
    const Expr& e = *v.stmt_->query->select_list[i].expr;
    if (e.kind == ExprKind::kVarRef) {
      v.dom_.push_back(e.var_name);
    } else if (e.kind == ExprKind::kAgg) {
      v.dom_.push_back("#agg" + std::to_string(i));
    } else {
      return Status::Unsupported(
          "view select items must be variables (or aggregates) after "
          "normalization; got: " + e.ToString());
    }
  }

  // View variables and Out(V).
  auto add_view_var = [&](const NameTerm& t) {
    if (t.is_variable) v.view_variables_.push_back(ToLower(t.text));
  };
  add_view_var(v.stmt_->db);
  add_view_var(v.stmt_->name);
  for (const NameTerm& a : v.stmt_->attrs) add_view_var(a);

  std::vector<std::string> out = v.view_variables_;
  for (const std::string& s : v.dom_) {
    if (s.rfind("#agg", 0) == 0) continue;
    out.push_back(ToLower(s));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  v.out_ = std::move(out);

  // Tables(V) and tuple variables.
  for (const FromItem& f : v.stmt_->query->from_items) {
    if (f.kind == FromItemKind::kTupleVar) {
      std::string db = f.db.empty() ? default_db : f.db.text;
      v.tables_.push_back(TableRef{ToLower(db), ToLower(f.rel.text)});
      v.tuple_vars_.push_back(f.var);
    } else if (f.kind == FromItemKind::kDomainVar) {
      v.domain_decls_[ToLower(f.var)] = DomainDecl{f.tuple, f.attr};
    }
  }

  CollectConjuncts(v.stmt_->query->where.get(), &v.conds_);
  return v;
}

bool ViewDefinition::IsOutput(const std::string& var_name) const {
  std::string key = ToLower(var_name);
  return std::find(out_.begin(), out_.end(), key) != out_.end();
}

bool ViewDefinition::HasAttributeVariables() const {
  for (size_t i = 0; i < stmt_->attrs.size(); ++i) {
    if (stmt_->attrs[i].is_variable) return true;
  }
  return false;
}

const ViewDefinition::DomainDecl* ViewDefinition::FindDomainDecl(
    const std::string& var_name) const {
  auto it = domain_decls_.find(ToLower(var_name));
  if (it == domain_decls_.end()) return nullptr;
  return &it->second;
}

bool ViewDefinition::IsAggregateView() const {
  if (!stmt_->query->group_by.empty()) return true;
  for (const SelectItem& item : stmt_->query->select_list) {
    if (item.expr->ContainsAggregate()) return true;
  }
  return false;
}

bool ViewDefinition::IsStaleAgainst(const CatalogSnapshot& snapshot) const {
  if (!fenced_) return false;
  uint64_t built = materialized_version_.load();
  // A database that disappeared entirely reports version 0, which would
  // read as "older than the build" — it is the opposite: everything the
  // fence protected is gone.
  for (const TableRef& t : tables_) {
    if (!snapshot.HasDatabase(t.db)) return true;
    if (snapshot.DatabaseVersion(t.db) > built) return true;
  }
  for (const TableRef& t : materialization_) {
    if (!snapshot.HasDatabase(t.db)) return true;
    if (snapshot.DatabaseVersion(t.db) > built) return true;
  }
  return false;
}

}  // namespace dynview
