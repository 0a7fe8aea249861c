#ifndef DYNVIEW_OPTIMIZER_OPTIMIZER_H_
#define DYNVIEW_OPTIMIZER_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/translate.h"
#include "core/usability.h"
#include "core/view_definition.h"
#include "index/view_index.h"
#include "optimizer/plan.h"

namespace dynview {

/// The final optimized plan: a physical tree over access paths plus the
/// normalized statement whose projection/aggregation/ordering is applied on
/// top of the plan's output.
struct OptimizedPlan {
  std::unique_ptr<PlanNode> root;
  std::unique_ptr<SelectStmt> stmt;
  double est_cost = 0;
  double est_rows = 0;
  bool uses_views = false;
  bool uses_indexes = false;

  /// The catalog version the plan was costed against; Execute reads it, so
  /// plan-time and run-time see the same data even with concurrent writers.
  std::shared_ptr<const CatalogSnapshot> snapshot;

  /// View/index access paths that were *candidates* but excluded because
  /// their derived state predates a commit to a source database (stale
  /// fence). Non-empty means the plan fell back to base-table paths for
  /// those resources; callers surface this as a deterministic warning.
  std::vector<std::string> stale_paths;

  std::string Describe() const;
};

/// A Selinger-style dynamic-programming optimizer extended per Sec. 6 of the
/// paper: in addition to base-table scans, the initial access-path set
/// includes (a) view-described indexes and (b) materialized SQL/dynamic
/// views that pass the Thm. 5.2/5.4 usability test for a subquery. The
/// Chaudhuri-style bookkeeping — which tables and predicates each view
/// access answers — is exactly what Alg. 5.1's translation reports, so
/// dynamic views integrate without the optimizer understanding their
/// higher-order internals.
class Optimizer {
 public:
  /// `catalog` holds both the integration schema (queried tables) and the
  /// materializations of registered views.
  Optimizer(const Catalog* catalog, std::string default_db);

  /// Registers a materialized view as a candidate access path. The
  /// materialization must already exist in the catalog.
  void RegisterView(std::shared_ptr<ViewDefinition> view);

  /// Enables exact catalog statistics (distinct counts, min/max) for
  /// cardinality estimation instead of the System-R magic constants. Costs
  /// one scan per referenced table at first planning.
  void EnableStatistics(bool on = true) { use_stats_ = on; }

  /// Registers a view-described index as a candidate access path over the
  /// table its definition reads (ViewIndex::access_path). An index without
  /// the single-table shape offers no access path; returns false for it.
  bool RegisterIndex(std::shared_ptr<ViewIndex> index);

  /// Plans an SPJ(+aggregation) query. Aggregation/DISTINCT/ORDER BY are
  /// applied above the join plan.
  Result<OptimizedPlan> Plan(const std::string& sql) const;

  /// Plans with view/index access paths disabled (the baseline optimizer —
  /// used by the Sec. 6 benchmarks to measure what the extension buys).
  Result<OptimizedPlan> PlanBaseline(const std::string& sql) const;

  /// Executes a plan: runs the physical tree, then the statement's
  /// projection/aggregation/ordering over its output.
  Result<Table> Execute(const OptimizedPlan& plan) const;

  /// EXPLAIN of the Sec. 6 plan: plans `sql` twice — with and without
  /// view/index access paths — and renders the chosen physical tree, the
  /// access paths it uses (which view/index answers which tuple variables,
  /// how many predicates each absorbed), and the estimated cost vs the
  /// baseline plan. Pure planning: nothing is executed.
  Result<std::string> Explain(const std::string& sql) const;

 private:
  Result<OptimizedPlan> PlanInternal(const std::string& sql,
                                     bool allow_resources) const;

  const Catalog* catalog_;
  std::string default_db_;
  bool use_stats_ = false;
  std::vector<std::shared_ptr<ViewDefinition>> views_;
  std::vector<std::shared_ptr<ViewIndex>> indexes_;  // With access paths.
};

}  // namespace dynview

#endif  // DYNVIEW_OPTIMIZER_OPTIMIZER_H_
