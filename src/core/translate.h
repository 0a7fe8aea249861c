#ifndef DYNVIEW_CORE_TRANSLATE_H_
#define DYNVIEW_CORE_TRANSLATE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/usability.h"
#include "core/view_definition.h"

namespace dynview {

/// The product of Alg. 5.1: the rewritten query Q′ plus the bookkeeping a
/// Sec. 6 optimizer needs (which tables and predicates the view answered).
struct TranslationResult {
  /// Q′ — SQL when the view is first order, SchemaSQL when it is dynamic
  /// (schema variables quantify over the view's materialized labels).
  std::unique_ptr<SelectStmt> query;
  /// The fresh tuple variable scanning the view (step 1d).
  std::string view_tuple_var;
  /// Query tuple variables replaced by the view (φ images of Tables(V)) —
  /// the "portion of the query answered" in Sec. 6.
  std::vector<std::string> covered_tuple_vars;
  /// Number of query conjuncts absorbed by the view (implied by φ(Conds(V))).
  size_t absorbed_conjuncts = 0;
  /// Number of residual conjuncts (Conds′) kept in Q′.
  size_t residual_conjuncts = 0;
};

/// Implements Algorithm 5.1: translation of an SQL query on the integration
/// schema I into an SQL/SchemaSQL query on a materialized view.
class QueryTranslator {
 public:
  /// `guard` (optional) records the usability checks' literal-dependent
  /// implication answers (see LiteralGuard).
  QueryTranslator(const CatalogReader* catalog, std::string default_db,
                  LiteralGuard* guard = nullptr)
      : catalog_(catalog), default_db_(std::move(default_db)), guard_(guard) {}

  /// Translates bound, normalized `query` through `view` using the mapping
  /// found by the usability checker. `usability.usable` must be true.
  Result<TranslationResult> Translate(const ViewDefinition& view,
                                      const SelectStmt& query,
                                      const BoundQuery& bq,
                                      const UsabilityResult& usability) const;

  /// Convenience: parse + normalize + usability check (set or multiset) +
  /// translate. Fails with the usability reason when the view is unusable.
  Result<TranslationResult> TranslateSql(const ViewDefinition& view,
                                         const std::string& query_sql,
                                         bool multiset) const;

  /// Applies the view to the parsed, unbound `query` repeatedly until no
  /// further tuple variables can be covered — producing the Fig. 11 Q1′
  /// shape, where a self-join over the integration is answered by two scans
  /// of the view. Fails if the view is not usable even once. The returned
  /// result aggregates the bookkeeping of all applications. The binder
  /// annotates in place, so this works on a clone: `query` stays a reusable
  /// template.
  Result<TranslationResult> TranslateAll(const ViewDefinition& view,
                                         const SelectStmt& query,
                                         bool multiset) const;

  /// Parse-then-call form of TranslateAll.
  Result<TranslationResult> TranslateSqlAll(const ViewDefinition& view,
                                            const std::string& query_sql,
                                            bool multiset) const;

 private:
  const CatalogReader* catalog_;
  std::string default_db_;
  LiteralGuard* guard_;
};

}  // namespace dynview

#endif  // DYNVIEW_CORE_TRANSLATE_H_
