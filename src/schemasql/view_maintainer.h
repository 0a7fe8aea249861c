#ifndef DYNVIEW_SCHEMASQL_VIEW_MAINTAINER_H_
#define DYNVIEW_SCHEMASQL_VIEW_MAINTAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/view_definition.h"
#include "relational/catalog.h"
#include "sql/ast.h"

namespace dynview {

/// Incremental maintenance of materialized dynamic views. The Fig. 6
/// architecture lets sources evolve independently; when the integration
/// side holds the base data (warehouse-loading direction), inserts and
/// deletes must flow into the source materializations without full
/// recomputation.
///
/// Supported views: single-block bodies over ONE base relation
/// (self-maintainable views — exactly the shape of the paper's v4/v5/V
/// sources). Maintenance strategy:
///
///  * no attribute variable (plain or partitioned views): deltas are pushed
///    through the view body alone — inserts append to the right label
///    table(s) (creating them as new labels appear), deletes bag-subtract;
///  * attribute-variable (pivot) views: the delta determines the affected
///    group keys; those groups are recomputed from the full base relation
///    and spliced into the materialization (a pivot's rows depend on all
///    rows of their group, so pure delta propagation is impossible —
///    Sec. 3.1 cross-product semantics), with the column set widened as new
///    labels appear.
///
/// Atomicity: each ApplyInserts/ApplyDeletes call is ONE catalog
/// transaction — the base-table update and every propagated change to the
/// materialization commit together, so a concurrent reader's snapshot always
/// shows base and materialization in lock-step (never a base with a stale
/// view or vice versa). The `maintainer.delta` failpoint fires inside the
/// transaction (detail: `db::rel` of the base, lowercased); an injected
/// failure aborts the whole delta with nothing published.
class ViewMaintainer {
 public:
  /// `catalog` must hold both the base relation and the materialization and
  /// outlive the maintainer. The view must already be materialized (e.g.
  /// via ViewMaterializer) — Create does not materialize.
  static Result<ViewMaintainer> Create(const CreateViewStmt& view,
                                       Catalog* catalog,
                                       const std::string& integration_db,
                                       const std::string& default_target_db);

  /// Parses then creates (convenience).
  static Result<ViewMaintainer> CreateFromSql(
      const std::string& create_view_sql, Catalog* catalog,
      const std::string& integration_db,
      const std::string& default_target_db);

  /// Applies `rows` as inserts into the base relation: appends them to the
  /// base table AND incrementally updates the materialization.
  Status ApplyInserts(const std::vector<Row>& rows);

  /// Applies `rows` as deletes (one materialized instance removed per
  /// occurrence): removes them from the base table and updates the
  /// materialization. Rows absent from the base are ignored.
  Status ApplyDeletes(const std::vector<Row>& rows);

  /// The base relation the view ranges over.
  const TableRef& base() const { return base_; }

  /// Binds the fence of the view definition this maintainer repairs: with
  /// every successful delta commit, the definition's materialized version
  /// advances to the commit version, un-fencing access paths that the base
  /// change would otherwise have staled. The advance happens before the
  /// commit publishes (Catalog::Mutate's before_publish), so no reader pins
  /// the new version while the fence still predates it; a failed commit
  /// advances nothing. Borrowed — must outlive the maintainer (or be
  /// rebound/cleared).
  void BindFence(ViewDefinition* fence) { fence_ = fence; }

  /// Tag recorded with every delta commit (the WAL persists it). The
  /// integration layer sets "maintainer.delta#<source index>" so recovery
  /// can re-advance the right fence; standalone maintainers keep the
  /// default and their fence advance is NOT durable across restarts.
  void set_commit_tag(std::string tag) { commit_tag_ = std::move(tag); }
  const std::string& commit_tag() const { return commit_tag_; }

  ViewMaintainer(ViewMaintainer&&) = default;
  ViewMaintainer& operator=(ViewMaintainer&&) = default;

 private:
  ViewMaintainer() = default;

  /// Pushes `delta` (rows of the base schema) through the view body and
  /// appends the results to the materialization (insert direction for
  /// non-pivot views). Runs inside the delta transaction.
  Status PropagateAppend(CatalogTxn& txn, const std::vector<Row>& delta);

  /// Bag-subtracts the view image of `delta` from the materialization
  /// (delete direction for non-pivot views). Runs inside the delta
  /// transaction.
  Status PropagateRemove(CatalogTxn& txn, const std::vector<Row>& delta);

  /// Moves the bound fence to `version` (Catalog::Mutate's before_publish).
  void AdvanceFence(uint64_t version);

  /// Recomputes the pivot groups touched by `delta` from the full base
  /// (read through `txn` — the base row already updated this transaction).
  Status RecomputeAffectedGroups(CatalogTxn& txn,
                                 const std::vector<Row>& delta);

  /// Evaluates the view body against a catalog holding `delta` as the base
  /// relation; returns rows shaped like the materializer's augmented output
  /// (select positions + label columns).
  Result<Table> EvaluateBodyOver(const std::vector<Row>& delta) const;

  Catalog* catalog_ = nullptr;
  ViewDefinition* fence_ = nullptr;  // Borrowed; null = no fence to advance.
  std::string commit_tag_ = "maintainer.delta";
  std::string integration_db_;
  std::string default_target_db_;
  std::unique_ptr<CreateViewStmt> view_;  // Bound.
  BoundView bound_;
  TableRef base_;
  Schema base_schema_;
  int pivot_position_ = -1;  // Header index of the attribute variable.
  // Augmented-output column indexes (see ViewMaterializer).
  int db_col_ = -1;
  int rel_col_ = -1;
  int attr_col_ = -1;
  // Header positions that are constant attributes (pivot group columns).
  std::vector<size_t> const_positions_;
  // For each const position: the base-table column it directly projects,
  // or -1 when the value is computed (disables group pre-filtering).
  std::vector<int> const_base_columns_;
};

}  // namespace dynview

#endif  // DYNVIEW_SCHEMASQL_VIEW_MAINTAINER_H_
