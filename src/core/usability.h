#ifndef DYNVIEW_CORE_USABILITY_H_
#define DYNVIEW_CORE_USABILITY_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/implication.h"
#include "core/view_definition.h"
#include "relational/catalog.h"
#include "sql/ast.h"
#include "sql/binder.h"

namespace dynview {

/// A variable mapping φ from Var(V) to Var(Q) (Def. 5.1): tuple variables of
/// the view map to tuple variables of the query over the same relation, and
/// domain variables map along the induced attribute correspondence.
struct VariableMapping {
  /// Lowercased view variable → query variable (original case).
  std::map<std::string, std::string> map;
  /// True if φ is injective over Var(V) (required by Thms. 5.3/5.4).
  bool one_to_one = false;

  /// φ(view_var); empty when unmapped.
  std::string Apply(const std::string& view_var) const;

  /// Clones `e` with every view-variable reference replaced by its image.
  std::unique_ptr<Expr> ApplyToExpr(const Expr& e) const;

  std::string ToString() const;
};

/// Outcome of a usability test (Thms. 5.1–5.4).
struct UsabilityResult {
  bool usable = false;
  /// Human-readable explanation when not usable (which condition failed).
  std::string reason;
  VariableMapping phi;
  /// Conds′ — the residual predicates of Thm. 5.2 condition 3 (clones of
  /// query conjuncts, possibly with equality substitutions applied to meet
  /// condition 3(b)).
  std::vector<std::unique_ptr<Expr>> residual;
  /// For each needed query variable that the view must supply: the query
  /// variable (lowercased) → the view variable B ∈ Out(V) with
  /// Conds(Q) ⊨ A = φ(B) (Thm. 5.2 condition 2).
  std::map<std::string, std::string> supplied_by;
};

/// Structural summary of a normalized query used by the matcher.
struct QueryInfo {
  std::vector<TableRef> tables;
  std::vector<std::string> tuple_vars;
  /// tuple var (lower) → attr (lower) → domain variable name.
  std::map<std::string, std::map<std::string, std::string>> domain_of;
  /// domain variable (lower) → declaring tuple variable (lower).
  std::map<std::string, std::string> tuple_of_domain;
  /// domain variable (lower) → declared attribute (lower). Distinct from
  /// domain_of, which keeps one variable per (tuple, attribute): a query may
  /// declare several variables over the SAME attribute, and each needs its
  /// own supplier when the declaring tuple variable is covered away.
  std::map<std::string, std::string> attr_of_domain;
  std::vector<const Expr*> conds;
  /// Variables whose values the answer needs: select + GROUP BY + HAVING +
  /// ORDER BY references (lowercased, deduplicated).
  std::vector<std::string> needed_vars;
};

/// Extracts the Sec. 5 structure from a bound, normalized query.
Result<QueryInfo> AnalyzeQuery(const SelectStmt& stmt, const BoundQuery& bq,
                               const std::string& default_db);

/// Decides whether `view` is usable in answering `query` under set and
/// multiset semantics, implementing:
///   Thm. 5.1 — SPJ SQL views, set semantics (special case: no view vars),
///   Thm. 5.2 — dynamic SPJ views, set semantics,
///   Thm. 5.3 — SPJ SQL views, multiset semantics (φ one-to-one),
///   Thm. 5.4 — dynamic views, multiset semantics (additionally: no
///               attribute variables).
/// Aggregate queries are admitted per Sec. 5.2: under set usability all
/// aggregates must be duplicate-insensitive (MIN/MAX) unless the multiset
/// conditions hold.
class UsabilityChecker {
 public:
  /// With `guard`, every implication answer a check takes that depends on a
  /// query literal is recorded there (see LiteralGuard).
  UsabilityChecker(const CatalogReader* catalog, std::string default_db,
                   LiteralGuard* guard = nullptr)
      : catalog_(catalog), default_db_(std::move(default_db)), guard_(guard) {}

  /// Thm. 5.1/5.2. `query` must be normalized and bound.
  Result<UsabilityResult> CheckSetUsable(const ViewDefinition& view,
                                         const SelectStmt& query,
                                         const BoundQuery& bq) const;

  /// Thm. 5.3/5.4.
  Result<UsabilityResult> CheckMultisetUsable(const ViewDefinition& view,
                                              const SelectStmt& query,
                                              const BoundQuery& bq) const;

  /// Convenience: parse + normalize + check. `multiset` selects the test.
  Result<UsabilityResult> CheckSql(const ViewDefinition& view,
                                   const std::string& query_sql,
                                   bool multiset) const;

 private:
  Result<UsabilityResult> Check(const ViewDefinition& view,
                                const SelectStmt& query, const BoundQuery& bq,
                                bool require_one_to_one) const;

  const CatalogReader* catalog_;
  std::string default_db_;
  LiteralGuard* guard_;
};

}  // namespace dynview

#endif  // DYNVIEW_CORE_USABILITY_H_
