#ifndef DYNVIEW_SCHEMASQL_VIEW_MATERIALIZER_H_
#define DYNVIEW_SCHEMASQL_VIEW_MATERIALIZER_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/query_engine.h"
#include "relational/catalog.h"
#include "sql/ast.h"

namespace dynview {

/// Materializes CREATE VIEW statements, including views with data-dependent
/// output schemas (dynamic views, Def. 3.1):
///
///  * a variable view (relation) name partitions the result horizontally —
///    one output table per label (Fig. 5 v4: one relation per company);
///  * a variable database name partitions across databases (Fig. 5 v6);
///  * a variable attribute label pivots vertically with the paper's Sec. 3.1
///    full-outer-join semantics — one output column per label, groups with
///    several rows per label produce cross products, absent labels pad NULL
///    (Fig. 5 v5: one price column per company).
///
/// At most one attribute position may be a variable (SchemaSQL's practical
/// restriction; more would require nested pivots).
/// One output relation of a materialization, built but not yet installed.
/// `db`/`rel` keep the label's original case (catalog keys are
/// case-insensitive).
struct MaterializedPartition {
  std::string db;
  std::string rel;
  Table table;
};

class ViewMaterializer {
 public:
  /// Evaluates `view`'s body against `engine`'s catalog and writes the
  /// resulting table(s) into `target`. A view without a database qualifier
  /// lands in `default_target_db`. Returns the (database, relation) pairs
  /// created, in deterministic order.
  ///
  /// The body is evaluated under `qc` (unguarded when null), against the
  /// snapshot it pins when that belongs to the engine's catalog, and all
  /// partitions install in ONE catalog commit —
  /// concurrent readers see the whole materialization or none of it. On a
  /// guard trip or injected failure nothing installs.
  ///
  /// Failpoint: `engine.materialize` fires before the install commit with
  /// the lowercased view name as the match detail.
  ///
  /// `commit_version`, when given, receives the catalog version that the
  /// install committed (the view's build version for stale fencing).
  static Result<std::vector<std::pair<std::string, std::string>>> Materialize(
      const CreateViewStmt& view, QueryEngine* engine, Catalog* target,
      const std::string& default_target_db, QueryContext* qc = nullptr,
      uint64_t* commit_version = nullptr);

  /// Parses `create_view_sql` and materializes it (convenience).
  static Result<std::vector<std::pair<std::string, std::string>>>
  MaterializeSql(const std::string& create_view_sql, QueryEngine* engine,
                 Catalog* target, const std::string& default_target_db,
                 QueryContext* qc = nullptr, uint64_t* commit_version = nullptr);

  /// The evaluation half of Materialize: builds every output partition (in
  /// the same deterministic order) without touching any catalog. Callers
  /// that need install-time control — the schema evolver drops obsolete
  /// partitions and installs the fresh ones in ONE tagged commit — compose
  /// their own transaction from the result.
  static Result<std::vector<MaterializedPartition>> Build(
      const CreateViewStmt& view, QueryEngine* engine,
      const std::string& default_target_db, QueryContext* qc = nullptr);
};

}  // namespace dynview

#endif  // DYNVIEW_SCHEMASQL_VIEW_MATERIALIZER_H_
