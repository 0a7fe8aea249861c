#ifndef DYNVIEW_ENGINE_QUERY_ENGINE_H_
#define DYNVIEW_ENGINE_QUERY_ENGINE_H_

#include <memory>
#include <mutex>
#include <string>

#include "common/exec_config.h"
#include "common/query_context.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "engine/exec_plan.h"
#include "engine/expr_compile.h"
#include "relational/catalog.h"
#include "sql/ast.h"
#include "sql/binder.h"

namespace dynview {

struct ExecContext;

/// Evaluates SQL and SchemaSQL SELECT statements against a federation
/// catalog.
///
/// First-order queries run through a join pipeline (hash joins on equi-join
/// conjuncts, predicate pushdown, grouping/aggregation, DISTINCT, ORDER BY,
/// UNION). Higher-order queries are first grounded: every schema variable is
/// instantiated against the catalog (see schemasql/instantiate.h) and the
/// resulting first-order queries are evaluated and bag-unioned. This is the
/// "minimal extension to existing query engines" execution model the paper
/// proposes: the higher-order machinery reduces to orchestration around a
/// conventional evaluator.
///
/// Build and run: Execute builds an ExecPlan for the pinned snapshot (binds
/// every branch, enumerates and substitutes the groundings, compiles one
/// pipeline per slot layout) and then runs it. Build reads names and
/// schemas only, so a caller that keeps the plan (the integration plan
/// cache, keyed by schema epoch) calls Run again at any snapshot of the
/// same epoch and skips the build entirely.
///
/// Snapshot isolation: every execution resolves its tables through one
/// CatalogSnapshot pinned at entry — the one carried by the QueryContext
/// when it pins this engine's catalog, else the catalog's current version —
/// so a query's answer always equals its serial answer against a single
/// catalog version, even with writers committing concurrently.
///
/// Concurrency: every entry point is safe to call from several threads on
/// one engine. Guards, the snapshot pin and the observer travel on the
/// QueryContext a call passes; the engine holds none of them, and the worker
/// pool is created thread-safely and shared.
class QueryEngine {
 public:
  /// `catalog` must outlive the engine. `default_db` resolves unqualified
  /// relation names. `exec` sets the parallelism: groundings are evaluated
  /// concurrently and large operator inputs run morsel-parallel, with
  /// results always merged in deterministic (declaration/morsel) order —
  /// `ExecConfig{.num_threads = 1}` forces fully serial evaluation.
  QueryEngine(const Catalog* catalog, std::string default_db,
              ExecConfig exec = ExecConfig())
      : catalog_(catalog), default_db_(std::move(default_db)), exec_(exec) {}

  const Catalog& catalog() const { return *catalog_; }
  const std::string& default_db() const { return default_db_; }
  const ExecConfig& exec_config() const { return exec_; }

  /// The engine's worker pool, created on first use; nullptr in serial mode.
  /// Thread-safe (first caller creates, everyone shares). Exposed so
  /// cooperating components (e.g. ViewMaterializer) can share the pool.
  ThreadPool* EnsurePool();

  /// The snapshot an execution under `qc` reads: the pin `qc` carries when
  /// it belongs to this engine's catalog, else the catalog's current
  /// version. Components wrapping the engine (materializer, plan execution)
  /// use this to read the same version the engine will.
  std::shared_ptr<const CatalogSnapshot> PinnedSnapshot(
      QueryContext* qc) const;

  /// Parses, binds and evaluates a SELECT statement under `qc`'s guards,
  /// pin and observer; without a context it runs unguarded on the current
  /// catalog version.
  Result<Table> ExecuteSql(const std::string& sql, QueryContext* qc = nullptr);

  /// Binds and evaluates a parsed statement (all UNION branches): Build,
  /// then Run, under one `query.execute` span. Without a context it runs
  /// unguarded.
  Result<Table> Execute(SelectStmt* stmt, QueryContext* qc = nullptr);

  /// Builds the executable plan of `stmt` (all UNION branches) against the
  /// snapshot `qc` pins. Binding annotates `stmt` in place. Never fails:
  /// bind and resolution errors are kept in the plan and raised by Run
  /// where evaluation meets them. Compiles through `qc`'s program memo when
  /// it carries one, else the engine's.
  std::shared_ptr<const ExecPlan> Build(SelectStmt* stmt, QueryContext* qc);

  /// Runs `plan` under `qc`, whose pinned snapshot must have the schema
  /// epoch of the version the plan was built against. Every relation is
  /// resolved by name again, so the catalog.resolve failpoint still fires
  /// per scan.
  Result<Table> Run(const ExecPlan& plan, QueryContext* qc);

 private:
  using SnapshotRef = std::shared_ptr<const CatalogSnapshot>;

  std::shared_ptr<const ExecPlan> BuildImpl(SelectStmt* stmt,
                                            QueryContext* qc,
                                            const SnapshotRef& snap);
  Result<Table> RunImpl(const ExecPlan& plan, QueryContext* qc,
                        const SnapshotRef& snap);

  /// Builds one bound branch into `b`. A higher-order branch whose
  /// aggregation / DISTINCT / ORDER BY must apply across all groundings
  /// becomes an aggregate-free inner fan-out plus a global pipeline over the
  /// union.
  void BuildBranch(const SelectStmt& stmt, const BoundQuery& bq,
                   const ExecContext& ctx, const CatalogSnapshot& snap,
                   BranchPlan* b) const;
  /// Enumerates the groundings of `stmt` and compiles their pipelines.
  void BuildFanout(const SelectStmt& stmt, const BoundQuery& bq,
                   const ExecContext& ctx, const CatalogSnapshot& snap,
                   BranchPlan* b) const;
  /// Whether running `b` at `snap` warrants the worker pool.
  bool WantsPool(const BranchPlan& b, const CatalogSnapshot& snap) const;
  Result<Table> RunBranch(const BranchPlan& b, QueryContext* qc,
                          const SnapshotRef& snap);
  Result<Table> RunFanout(const BranchPlan& b, QueryContext* qc,
                          const SnapshotRef& snap);

  /// Operator-level context for one execution under `qc` reading `snap`:
  /// the shared pool, morsel granularity, guard, pinned snapshot, and
  /// observability sinks.
  ExecContext Ctx(QueryContext* qc, const SnapshotRef& snap) const;

  /// The pool pointer without creating it (thread-safe load).
  ThreadPool* CurrentPool() const;

  const Catalog* catalog_;
  std::string default_db_;
  ExecConfig exec_;
  /// Lazily created once under pool_mu_ and never replaced; pool_ptr_
  /// publishes it to lock-free readers.
  std::mutex pool_mu_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<ThreadPool*> pool_ptr_{nullptr};
  /// Compiled-program memo plan builds use when the query carries none of
  /// its own (ExecContext::programs; thread-safe, bounded). Mutable because
  /// program compilation is a cache fill, not a semantic change.
  mutable ExprProgramCache default_programs_;
};

}  // namespace dynview

#endif  // DYNVIEW_ENGINE_QUERY_ENGINE_H_
