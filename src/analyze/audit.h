#ifndef DYNVIEW_ANALYZE_AUDIT_H_
#define DYNVIEW_ANALYZE_AUDIT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analyze/depgraph.h"
#include "analyze/diagnostic.h"
#include "common/result.h"
#include "core/view_definition.h"
#include "index/view_index.h"
#include "relational/catalog.h"

namespace dynview {

struct DdlOp;  // evolve/evolution.h
class MetricsRegistry;

/// The workload-level findings of one audit run over a pinned catalog
/// snapshot. Diagnostics use the DV100.. range (the per-definition pass owns
/// DV000..DV007):
///   DV100 duplicate-view          — two definitions proved set-equivalent
///   DV101 subsumed-view           — one definition proved contained in
///                                   another (merge candidate)
///   DV102 shadowed-materialization — a fenced materialization that is stale
///                                   against the audited snapshot, so every
///                                   query falls back past it
///   DV103 unused-source           — a table no view or index reads and no
///                                   materialization targets
/// Deterministic: depends only on (snapshot version, registration order).
struct AuditReport {
  uint64_t catalog_version = 0;
  DepGraphStats graph_stats;
  /// DependencyGraph::Describe() — stats then one line per edge.
  std::string graph;
  /// Sorted (DiagnosticLess); Diagnostic::statement carries the source
  /// registration index the finding anchors to (0 for table-level findings).
  std::vector<Diagnostic> diagnostics;
  /// Ordered (i, j) view pairs offered to the containment checker.
  size_t pairs_checked = 0;
  size_t duplicates = 0;
  size_t subsumed = 0;
  size_t shadowed = 0;
  size_t unused = 0;
};

/// Predicted impact of one DDL op on one registered source, mirroring what
/// SchemaEvolver::Propagate would do without running it.
struct WhatIfSourceImpact {
  size_t index = 0;
  std::string name;  // Db(V)::Rel(V) display name.
  /// Post-DDL re-lint of the definition found error-severity diagnostics.
  bool definition_broken = false;
  /// The source is fenced and would be stale against the post-DDL catalog
  /// (the precondition for the evolver to act on its materialization).
  bool fenced_stale = false;
  bool rematerialized = false;
  bool left_stale = false;
  /// O(base) rebuild cost: total rows of the body tables in the post-DDL
  /// snapshot (0 when no rebuild is predicted).
  size_t rebuild_rows = 0;
};

/// Static blast-radius prediction for one DdlOp: the op is applied to a
/// *scratch copy* of the audited snapshot (same version arithmetic as the
/// live catalog), the affected sources are re-linted against the result, and
/// the evolver's propagation decisions are replayed symbolically. Field
/// names match EvolutionResult so tests can diff prediction vs. actuality.
struct WhatIfReport {
  std::string op_text;
  /// False when the op itself fails validation (missing relation, duplicate
  /// column, ...); `op_error` then carries the same message Apply would.
  bool op_valid = false;
  std::string op_error;
  uint64_t base_version = 0;
  uint64_t predicted_version = 0;
  /// Lowercased "db::rel" keys, sorted + deduplicated (EvolutionResult
  /// convention).
  std::vector<std::string> tables_changed;
  std::vector<WhatIfSourceImpact> impacts;  // Affected sources only.
  size_t sources_affected = 0;
  size_t rematerialized = 0;
  size_t left_stale = 0;
  size_t indexes_fenced = 0;
  /// Predicted post-DDL re-lint over affected sources (statement = source
  /// registration index), sorted.
  std::vector<Diagnostic> relint;
};

/// Parses DdlOp::ToString() back into an op — the CLI/server surface for
/// `--what-if='<ddl>'`. Round-trips all six kinds.
Result<DdlOp> ParseDdlOp(const std::string& text);

/// The workload auditor (purely static; never executes a query). Built from
/// raw ingredients so IntegrationSystem and tests can drive it against
/// whatever snapshot they have pinned.
class WorkloadAuditor {
 public:
  /// `metrics`, when given, receives the analyze.audit.* counter family.
  WorkloadAuditor(std::shared_ptr<const CatalogSnapshot> snap,
                  std::string integration_db,
                  std::vector<std::shared_ptr<ViewDefinition>> sources,
                  std::vector<AuditIndexInfo> indexes,
                  MetricsRegistry* metrics = nullptr);

  /// Dependency graph + DV100..DV103 over the pinned snapshot.
  AuditReport Audit() const;

  /// Blast-radius prediction for `op` (see WhatIfReport).
  WhatIfReport WhatIf(const DdlOp& op) const;

  /// Recovers each index's body tables from its stored definition text
  /// (unresolvable definitions yield an entry with no tables — the index
  /// still appears as a graph node).
  static std::vector<AuditIndexInfo> DescribeIndexes(
      const std::vector<std::shared_ptr<ViewIndex>>& indexes,
      const std::string& integration_db);

  /// Same recovery from raw CREATE INDEX text (the CLI path, which audits a
  /// file without ever building the index structures).
  static AuditIndexInfo DescribeIndexSql(const std::string& create_index_sql,
                                         const std::string& integration_db);

 private:
  std::shared_ptr<const CatalogSnapshot> snap_;
  std::string integration_db_;
  std::vector<std::shared_ptr<ViewDefinition>> sources_;
  std::vector<AuditIndexInfo> indexes_;
  MetricsRegistry* metrics_;
};

/// Renderings. Text is the human form; JSON is the CI envelope
/// (embeds RenderDiagnosticsJson for the findings array). Both end with a
/// newline and are byte-stable for a fixed report.
std::string RenderAuditText(const AuditReport& report);
std::string RenderAuditJson(const AuditReport& report);
std::string RenderWhatIfText(const WhatIfReport& report);
std::string RenderWhatIfJson(const WhatIfReport& report);

}  // namespace dynview

#endif  // DYNVIEW_ANALYZE_AUDIT_H_
