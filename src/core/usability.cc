#include "core/usability.h"

#include <algorithm>
#include <functional>
#include <set>

#include "common/str_util.h"
#include "core/implication.h"
#include "core/normalize.h"
#include "sql/parser.h"

namespace dynview {

std::string VariableMapping::Apply(const std::string& view_var) const {
  auto it = map.find(ToLower(view_var));
  return it == map.end() ? std::string() : it->second;
}

std::unique_ptr<Expr> VariableMapping::ApplyToExpr(const Expr& e) const {
  std::unique_ptr<Expr> out = e.Clone();
  if (out->kind == ExprKind::kVarRef) {
    std::string image = Apply(out->var_name);
    if (!image.empty()) out->var_name = image;
    return out;
  }
  if (e.left) out->left = ApplyToExpr(*e.left);
  if (e.right) out->right = ApplyToExpr(*e.right);
  return out;
}

std::string VariableMapping::ToString() const {
  std::string s = "{";
  bool first = true;
  for (const auto& [from, to] : map) {
    if (!first) s += ", ";
    first = false;
    s += from + " -> " + to;
  }
  s += one_to_one ? "} (1-1)" : "}";
  return s;
}

Result<QueryInfo> AnalyzeQuery(const SelectStmt& stmt, const BoundQuery& bq,
                               const std::string& default_db) {
  (void)bq;  // Binding annotations live in the AST; kept for symmetry.
  QueryInfo info;
  // Schema-variable declarations and references through them are tolerated:
  // they arise from view accesses introduced by earlier applications of
  // Alg. 5.1 (e.g. the second application that turns a self-join into two
  // view scans, Fig. 11). They are simply not candidates for further
  // replacement.
  for (const FromItem& f : stmt.from_items) {
    if (f.kind == FromItemKind::kTupleVar) {
      if (f.db.is_variable || f.rel.is_variable) continue;
      std::string db = f.db.empty() ? default_db : f.db.text;
      info.tables.push_back(TableRef{ToLower(db), ToLower(f.rel.text)});
      info.tuple_vars.push_back(f.var);
    } else if (f.kind == FromItemKind::kDomainVar) {
      if (f.attr.is_variable) continue;
      info.domain_of[ToLower(f.tuple)][ToLower(f.attr.text)] = f.var;
      info.tuple_of_domain[ToLower(f.var)] = ToLower(f.tuple);
      info.attr_of_domain[ToLower(f.var)] = ToLower(f.attr.text);
    }
  }
  CollectConjuncts(stmt.where.get(), &info.conds);

  std::vector<std::string> needed;
  auto collect = [&](const Expr& e) {
    std::vector<std::string> refs;
    e.CollectVarRefs(&refs);
    for (std::string& r : refs) needed.push_back(ToLower(r));
  };
  for (const SelectItem& item : stmt.select_list) collect(*item.expr);
  for (const auto& g : stmt.group_by) collect(*g);
  if (stmt.having) collect(*stmt.having);
  for (const OrderItem& o : stmt.order_by) collect(*o.expr);
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  info.needed_vars = std::move(needed);
  return info;
}

namespace {

/// Aggregate admissibility per Sec. 5.2: under pure set usability, only
/// duplicate-insensitive aggregates survive a multiplicity-losing view.
bool AllAggregatesDuplicateInsensitive(const SelectStmt& stmt) {
  bool ok = true;
  std::function<void(const Expr&)> walk = [&](const Expr& e) {
    if (e.kind == ExprKind::kAgg) {
      if (!IsDuplicateInsensitive(e.agg_func) && !e.agg_distinct) ok = false;
    }
    if (e.left) walk(*e.left);
    if (e.right) walk(*e.right);
  };
  for (const SelectItem& item : stmt.select_list) walk(*item.expr);
  if (stmt.having) walk(*stmt.having);
  for (const OrderItem& o : stmt.order_by) walk(*o.expr);
  return ok;
}

bool QueryHasAggregation(const SelectStmt& stmt) {
  if (!stmt.group_by.empty() || stmt.having != nullptr) return true;
  for (const SelectItem& item : stmt.select_list) {
    if (item.expr->ContainsAggregate()) return true;
  }
  return false;
}

}  // namespace

Result<UsabilityResult> UsabilityChecker::CheckSetUsable(
    const ViewDefinition& view, const SelectStmt& query,
    const BoundQuery& bq) const {
  return Check(view, query, bq, /*require_one_to_one=*/false);
}

Result<UsabilityResult> UsabilityChecker::CheckMultisetUsable(
    const ViewDefinition& view, const SelectStmt& query,
    const BoundQuery& bq) const {
  // Thm. 5.4: a dynamic view with attribute variables loses multiplicities
  // and is never multiset usable.
  if (view.HasAttributeVariables()) {
    UsabilityResult r;
    r.usable = false;
    r.reason =
        "Thm. 5.4: the view contains attribute variables, which lose tuple "
        "multiplicities (Sec. 4.3)";
    return r;
  }
  return Check(view, query, bq, /*require_one_to_one=*/true);
}

Result<UsabilityResult> UsabilityChecker::CheckSql(const ViewDefinition& view,
                                                   const std::string& query_sql,
                                                   bool multiset) const {
  DV_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt,
                      Parser::ParseSelect(query_sql));
  DV_ASSIGN_OR_RETURN(BoundQuery bq,
                      NormalizeQuery(stmt.get(), *catalog_, default_db_));
  if (multiset) return CheckMultisetUsable(view, *stmt, bq);
  return CheckSetUsable(view, *stmt, bq);
}

Result<UsabilityResult> UsabilityChecker::Check(const ViewDefinition& view,
                                                const SelectStmt& query,
                                                const BoundQuery& bq,
                                                bool require_one_to_one) const {
  UsabilityResult result;
  DV_ASSIGN_OR_RETURN(QueryInfo q, AnalyzeQuery(query, bq, default_db_));

  // Sec. 5.2 gate: an aggregate query answered through a view that is only
  // set-usable must use duplicate-insensitive aggregates (Ex. 5.2); a
  // multiset-usable rewriting has no such restriction.
  if (!require_one_to_one && QueryHasAggregation(query) &&
      view.HasAttributeVariables() &&
      !AllAggregatesDuplicateInsensitive(query)) {
    result.reason =
        "Sec. 5.2: duplicate-sensitive aggregates cannot be answered through "
        "a multiplicity-losing attribute view";
    return result;
  }

  ConditionAnalyzer q_conds(q.conds, guard_);

  // Candidate images for each view tuple variable: query tuple variables
  // over the same relation (Def. 5.1).
  const auto& vtables = view.tables();
  const auto& vtuples = view.tuple_vars();
  std::vector<std::vector<size_t>> candidates(vtables.size());
  for (size_t i = 0; i < vtables.size(); ++i) {
    for (size_t j = 0; j < q.tables.size(); ++j) {
      if (vtables[i] == q.tables[j]) candidates[i].push_back(j);
    }
    if (candidates[i].empty()) {
      result.reason = "no query tuple variable ranges over " +
                      vtables[i].ToString() + " (Def. 5.1)";
      return result;
    }
  }

  // Backtracking over assignments, bounded to keep the matcher cheap.
  constexpr int kMaxAssignments = 100000;
  int tried = 0;
  std::vector<size_t> choice(vtables.size(), 0);
  std::string last_failure;

  std::function<Result<bool>(size_t, std::vector<size_t>&)> search =
      [&](size_t depth, std::vector<size_t>& picks) -> Result<bool> {
    if (tried > kMaxAssignments) return false;
    if (depth == vtables.size()) {
      ++tried;
      // Build φ: tuple vars then induced domain vars.
      VariableMapping phi;
      std::set<size_t> used;
      bool injective_tuples = true;
      for (size_t i = 0; i < picks.size(); ++i) {
        phi.map[ToLower(vtuples[i])] = q.tuple_vars[picks[i]];
        if (!used.insert(picks[i]).second) injective_tuples = false;
      }
      if (require_one_to_one && !injective_tuples) return false;
      // Induced domain-variable mapping.
      std::set<std::string> image_domains;
      bool injective_domains = true;
      for (const FromItem& f : view.body().from_items) {
        if (f.kind != FromItemKind::kDomainVar) continue;
        std::string vt = ToLower(f.tuple);
        // Find the image tuple variable.
        std::string image_tuple;
        for (size_t i = 0; i < picks.size(); ++i) {
          if (ToLower(vtuples[i]) == vt) {
            image_tuple = ToLower(q.tuple_vars[picks[i]]);
            break;
          }
        }
        if (image_tuple.empty()) {
          last_failure = "view domain variable '" + f.var +
                         "' projects an unmapped tuple variable";
          return false;
        }
        auto t_it = q.domain_of.find(image_tuple);
        if (t_it == q.domain_of.end()) {
          last_failure = "query declares no domain variables over '" +
                         image_tuple + "'";
          return false;
        }
        auto a_it = t_it->second.find(ToLower(f.attr.text));
        if (a_it == t_it->second.end()) {
          last_failure = "query has no domain variable for attribute '" +
                         f.attr.text + "' of '" + image_tuple + "'";
          return false;
        }
        phi.map[ToLower(f.var)] = a_it->second;
        if (!image_domains.insert(ToLower(a_it->second)).second) {
          injective_domains = false;
        }
      }
      phi.one_to_one = injective_tuples && injective_domains;
      if (require_one_to_one && !phi.one_to_one) return false;

      // Condition 3(a): Conds(Q) ⊨ φ(Conds(V)).
      std::vector<std::unique_ptr<Expr>> mapped_conds;
      for (const Expr* c : view.conds()) {
        mapped_conds.push_back(phi.ApplyToExpr(*c));
      }
      for (const auto& mc : mapped_conds) {
        if (!q_conds.Implies(*mc)) {
          last_failure = "query conditions do not imply view condition " +
                         mc->ToString() + " (Thm. 5.2, 3a)";
          return false;
        }
      }

      // Residual Conds′: query conjuncts not implied by φ(Conds(V)).
      std::vector<const Expr*> mapped_ptrs;
      for (const auto& mc : mapped_conds) mapped_ptrs.push_back(mc.get());
      ConditionAnalyzer v_conds(mapped_ptrs, guard_);
      std::vector<std::unique_ptr<Expr>> residual;
      for (const Expr* qc : q.conds) {
        if (!v_conds.Implies(*qc)) residual.push_back(qc->Clone());
      }

      // Allowed residual variables (Thm. 5.2, 3b): φ(Out(V)) plus query
      // variables outside φ(Var(V)).
      std::set<std::string> image_all, image_out;
      for (const auto& [from, to] : phi.map) {
        image_all.insert(ToLower(to));
        if (view.IsOutput(from)) image_out.insert(ToLower(to));
      }
      // Query tuple variables the translation covers away — every domain
      // declaration over them is removed from Q′, so any OTHER variable
      // declared there survives only through a supplier in φ(Out(V)).
      std::set<std::string> covered_q;
      for (size_t i = 0; i < picks.size(); ++i) {
        covered_q.insert(ToLower(q.tuple_vars[picks[i]]));
      }
      auto decl_removed = [&](const std::string& var_lower) {
        auto td = q.tuple_of_domain.find(var_lower);
        return td != q.tuple_of_domain.end() && covered_q.count(td->second) > 0;
      };
      // The Out(V) image that can stand in for `var_lower` in Q′: itself if
      // it IS such an image; else a variable Conds(Q) proves equal; else a
      // sibling declaration of the same (tuple, attribute) — two domain
      // variables over one attribute are equal by construction even though
      // no WHERE conjunct says so. Empty = unrecoverable.
      auto supplier_for = [&](const std::string& var_lower) -> std::string {
        if (image_out.count(var_lower) > 0) return var_lower;
        if (image_all.count(var_lower) == 0 && !decl_removed(var_lower)) {
          return var_lower;  // Untouched by the translation.
        }
        for (const std::string& eq : q_conds.EqualVariables(var_lower)) {
          if (eq != var_lower && image_out.count(eq) > 0) return eq;
        }
        auto td = q.tuple_of_domain.find(var_lower);
        auto ad = q.attr_of_domain.find(var_lower);
        if (td != q.tuple_of_domain.end() && ad != q.attr_of_domain.end()) {
          for (const auto& [v2, t2] : q.tuple_of_domain) {
            if (v2 == var_lower || t2 != td->second) continue;
            auto a2 = q.attr_of_domain.find(v2);
            if (a2 != q.attr_of_domain.end() && a2->second == ad->second &&
                image_out.count(v2) > 0) {
              return v2;
            }
          }
        }
        return std::string();
      };
      // Repair disallowed references through suppliers, else fail.
      std::function<bool(Expr*)> repair = [&](Expr* e) -> bool {
        if (e->kind == ExprKind::kVarRef) {
          std::string v = ToLower(e->var_name);
          std::string s = supplier_for(v);
          if (s == v) return true;
          if (!s.empty()) {
            e->var_name = s;
            return true;
          }
          last_failure = "residual condition uses non-output view column '" +
                         e->var_name + "' (Thm. 5.2, 3b)";
          return false;
        }
        if (e->left && !repair(e->left.get())) return false;
        if (e->right && !repair(e->right.get())) return false;
        return true;
      };
      for (auto& rc : residual) {
        if (!repair(rc.get())) return false;
      }

      // Condition 2: every needed query variable the translation touches —
      // an image of a view variable, or a variable whose declaration is
      // removed with the covered tuple variables — must be recoverable from
      // Out(V).
      std::map<std::string, std::string> supplied;
      for (const std::string& a : q.needed_vars) {
        std::string s = supplier_for(a);
        if (s.empty()) {
          last_failure = "needed variable '" + a +
                         "' is projected out by the view and not recoverable "
                         "(Thm. 5.2, cond. 2)";
          return false;
        }
        supplied[a] = s;
      }

      result.usable = true;
      result.phi = std::move(phi);
      result.residual = std::move(residual);
      result.supplied_by = std::move(supplied);
      return true;
    }
    for (size_t cand : candidates[depth]) {
      picks[depth] = cand;
      DV_ASSIGN_OR_RETURN(bool done, search(depth + 1, picks));
      if (done) return true;
    }
    return false;
  };

  DV_ASSIGN_OR_RETURN(bool found, search(0, choice));
  if (!found && result.reason.empty()) {
    result.reason = last_failure.empty()
                        ? "no variable mapping satisfies Thm. 5.2"
                        : last_failure;
  }
  return result;
}

}  // namespace dynview
