#ifndef DYNVIEW_CORE_AGGREGATE_REWRITE_H_
#define DYNVIEW_CORE_AGGREGATE_REWRITE_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "core/translate.h"
#include "core/usability.h"
#include "core/view_definition.h"

namespace dynview {

/// Sec. 5.2 of the paper: answering aggregate queries with aggregate-defined
/// dynamic views (Ex. 5.3). The view pre-aggregates at a finer grouping than
/// the query; the rewriting accesses the materialized view and re-aggregates
/// to the query's coarser grouping.
///
/// Supported shapes (following Srivastava et al., which the paper builds
/// on): both view and query are single-block, single-aggregate queries whose
/// grouping keys are plain variables. The view's groups must refine the
/// query's (every query group key is recoverable from a view group key
/// under the variable mapping), residual predicates may mention only view
/// group columns, and the aggregate pair must be re-aggregable:
///
///   view MAX   → query MAX   (re-aggregate with MAX)
///   view MIN   → query MIN   (re-aggregate with MIN)
///   view SUM   → query SUM   (re-aggregate with SUM)
///   view COUNT → query COUNT (re-aggregate with SUM)
///   view AVG   → query AVG   — exact when the query groups match the view
///     groups; for coarser grouping AVG-of-AVG equals AVG only under
///     uniform group sizes (the implicit assumption in the paper's Ex. 5.3),
///     enabled via `allow_avg_reaggregation`.
class AggregateViewRewriter {
 public:
  /// `guard` (optional) records the containment check's literal-dependent
  /// implication answers (see LiteralGuard).
  AggregateViewRewriter(const CatalogReader* catalog, std::string default_db,
                        LiteralGuard* guard = nullptr)
      : catalog_(catalog), default_db_(std::move(default_db)), guard_(guard) {}

  /// Rewrites the parsed, unbound aggregate `query` onto aggregate `view`.
  /// On success the result's query is the re-aggregating SQL/SchemaSQL
  /// statement over the view's materialization. Binds a clone: `query`
  /// stays a reusable template.
  Result<TranslationResult> Rewrite(const ViewDefinition& view,
                                    const SelectStmt& query,
                                    bool allow_avg_reaggregation) const;

  /// Parse-then-call form of Rewrite.
  Result<TranslationResult> Rewrite(const ViewDefinition& view,
                                    const std::string& query_sql,
                                    bool allow_avg_reaggregation) const;

 private:
  const CatalogReader* catalog_;
  std::string default_db_;
  LiteralGuard* guard_;
};

/// Strips aggregation from a CREATE VIEW statement: aggregate select items
/// are replaced by their arguments and the GROUP BY is dropped, yielding the
/// SPJ core V° the containment machinery runs on. Exposed for testing.
Result<std::unique_ptr<CreateViewStmt>> StripViewAggregation(
    const CreateViewStmt& view);

}  // namespace dynview

#endif  // DYNVIEW_CORE_AGGREGATE_REWRITE_H_
