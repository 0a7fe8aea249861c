#ifndef DYNVIEW_ENGINE_OPERATORS_H_
#define DYNVIEW_ENGINE_OPERATORS_H_

#include <atomic>
#include <functional>
#include <vector>

#include "common/exec_config.h"
#include "common/query_context.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "engine/expr_compile.h"
#include "observe/metrics.h"
#include "observe/trace.h"
#include "relational/table.h"

namespace dynview {

class CatalogSnapshot;   // relational/catalog.h — one pinned catalog version.

/// Per-query execution context handed to operators: a borrowed pool (null =
/// serial), the morsel granularity, and the query's guard state (null =
/// unguarded — the fast path costs one pointer test). Operators that
/// parallelize always merge per-morsel outputs in morsel order, so for a
/// given input the output row order is identical to serial execution.
struct ExecContext {
  ThreadPool* pool = nullptr;
  size_t morsel_rows = ExecConfig{}.morsel_rows;
  QueryContext* guard = nullptr;

  /// The catalog version this execution reads (null when the engine runs
  /// unpinned, e.g. over a scratch catalog). Operators themselves never
  /// resolve tables, but cooperating components handed an ExecContext (the
  /// materializer's partition build, plan execution) must read through this
  /// snapshot so the whole query observes one consistent version.
  const CatalogSnapshot* snapshot = nullptr;

  /// Observability sinks (both null when the query carries no observer —
  /// the engine fills them from the query's observer). Counter increments
  /// happen at morsel/operator granularity; see observe/metrics.h for which
  /// counters are thread-count invariant.
  QueryTrace* trace = nullptr;
  MetricsRegistry* metrics = nullptr;

  /// Compiled-expression program memo (engine/expr_compile.h). Null means
  /// "compile uncached": every operator setup flattens its expressions
  /// afresh. The engine fills it from the query's own memo when it carries
  /// one, else its default cache. Lookups happen when a plan is built (or
  /// an operator is set up), never per row; the programs themselves are
  /// immutable and shared across workers.
  ExprProgramCache* programs = nullptr;

  /// Adds `n` to counter `name` when metrics are attached.
  void Count(const char* name, uint64_t n) const {
    if (metrics != nullptr) metrics->Add(name, n);
  }

  /// True when an input of `rows` is worth splitting into morsels.
  bool ShouldParallelize(size_t rows) const {
    return pool != nullptr && pool->num_workers() > 0 && rows > morsel_rows;
  }

  /// Rows per morsel for an input of `rows`: at least `morsel_rows`, and at
  /// most ~4 morsels per participating thread to bound scheduling overhead.
  size_t MorselSize(size_t rows) const;

  /// Morsels an input of `rows` splits into (1 when not parallelized).
  size_t NumMorsels(size_t rows) const {
    if (!ShouldParallelize(rows)) return 1;
    const size_t m = MorselSize(rows);
    return (rows + m - 1) / m;
  }

  /// Deadline/cancellation check; call once per morsel (or every ~1k rows
  /// in serial loops), not per row.
  Status CheckGuard() const {
    return guard == nullptr ? Status::OK() : guard->CheckGuards();
  }

  /// Charges `rows` output rows of width `columns` against the budgets.
  Status ChargeRows(size_t rows, size_t columns) const {
    return guard == nullptr ? Status::OK()
                            : guard->ChargeRows(rows, columns);
  }

  /// Cancellation flag for ParallelFor (null when unguarded).
  const std::atomic<bool>* CancelFlag() const {
    return guard == nullptr ? nullptr : guard->cancel_flag();
  }
};

/// The one morsel-driven filter operator. Runs the conjunction `preds` over
/// `in` (per row the programs run in order and the first non-True one drops
/// the row) and calls `emit(morsel, row)` for each kept row. Morsels number
/// `ctx.NumMorsels(in.num_rows())`; one morsel's rows are emitted in input
/// order on one thread, and morsels in order concatenate to input order.
/// Records the `op.filter` span, `rows.scanned` and `morsels.executed`,
/// checks the guard every ~1k rows and charges each morsel's kept rows at
/// `in`'s width. A filter error ends its morsel; an emit error ends only its
/// morsel's emits, so errors come out as if the filter ran over every row
/// first: a tripped guard, then filter errors, then emit errors, each in
/// morsel order. `emit` must be safe to call concurrently for distinct
/// morsels (the compiled predicates are).
Status FilterEmit(
    const Table& in,
    const std::vector<std::shared_ptr<const CompiledExpr>>& preds,
    const ExecContext& ctx,
    const std::function<Status(size_t morsel, const Row& row)>& emit);

/// The compiled program for `e` over rows shaped by `bindings`: from
/// `ctx.programs` when set, else compiled uncached. `agg_base` as in
/// CompiledExpr::Compile.
std::shared_ptr<const CompiledExpr> PrepareProgram(
    const Expr& e, const ColumnBindings& bindings, bool as_predicate,
    const ExecContext& ctx, int agg_base = -1);

/// A value expression ready for per-row evaluation (join keys, projections,
/// group/order keys, aggregate arguments). A bare literal is held as a
/// constant: it needs no program, and one per grounding-substituted label
/// would flood the program memo. Eval is safe to call concurrently.
struct PreparedValue {
  std::shared_ptr<const CompiledExpr> program;  // Null: `constant`.
  Value constant;

  Result<Value> Eval(const Row& r) const {
    if (program == nullptr) return constant;
    return program->EvalValue(r);
  }
};

PreparedValue PrepareValue(const Expr& e, const ColumnBindings& bindings,
                           const ExecContext& ctx);

/// The rows of `in` on which every conjunct is True, in input order
/// (FilterEmit appending each kept row).
Result<Table> FilterTable(const Table& in, const ColumnBindings& bindings,
                          const std::vector<const Expr*>& conjuncts,
                          const ExecContext& ctx);

/// FilterTable over conjuncts already compiled as predicates for `in`'s rows.
Result<Table> FilterTable(
    const Table& in,
    const std::vector<std::shared_ptr<const CompiledExpr>>& preds,
    const ExecContext& ctx);

/// Inner hash join of two tables on evaluated key expressions (`lkeys` over
/// `left`'s rows, `rkeys` over `right`'s). NULL keys never match. Builds on
/// `right` and probes with `left`; output columns are left's followed by
/// right's, in probe order. Above the morsel threshold the build side is
/// hash-partitioned across shards and the probe runs in morsels, merged in
/// morsel order, so the result is identical to the serial join.
Result<Table> JoinOnExprs(const Table& left, const ColumnBindings& lb,
                          const Table& right, const ColumnBindings& rb,
                          const std::vector<const Expr*>& lkeys,
                          const std::vector<const Expr*>& rkeys,
                          const ExecContext& ctx);

/// JoinOnExprs over key expressions already prepared for each side's rows.
Result<Table> JoinOnExprs(const Table& left, const Table& right,
                          const std::vector<PreparedValue>& lkeys,
                          const std::vector<PreparedValue>& rkeys,
                          const ExecContext& ctx);

/// Inner hash equi-join: rows of `left` × `right` where the key columns are
/// pairwise GroupEquals (NULL keys never match, per SQL). Output columns are
/// left's followed by right's. Above the morsel threshold the build side is
/// hash-partitioned and built shard-parallel, and the probe side is scanned
/// in morsels; output order still matches the serial join.
Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::vector<int>& left_keys,
                       const std::vector<int>& right_keys,
                       const ExecContext& ctx = ExecContext());

/// Cross product (used when no equi-join key is available). The output can
/// be quadratic, so this is the canonical row-budget enforcement point: the
/// guard is charged and checked per left row, stopping a runaway product
/// long before it materializes.
Result<Table> CrossProduct(const Table& left, const Table& right,
                           const ExecContext& ctx = ExecContext());

/// Full outer join on key columns. Matching rows combine (cross product per
/// key, preserving multiplicities — the paper's Sec. 3.1 pivot semantics);
/// unmatched rows pad the other side with NULLs. Output: left columns
/// followed by right columns (both key sets retained; callers coalesce).
/// NULL keys never match.
Result<Table> FullOuterJoin(const Table& left, const Table& right,
                            const std::vector<int>& left_keys,
                            const std::vector<int>& right_keys);

/// Appends all rows of `b` to a copy of `a` (schemas must have equal arity;
/// `a`'s schema wins).
Result<Table> UnionAll(const Table& a, const Table& b);

/// Projects `t` to `cols` (indexes), renaming columns to `names`.
Result<Table> ProjectColumns(const Table& t, const std::vector<int>& cols,
                             const std::vector<std::string>& names);

}  // namespace dynview

#endif  // DYNVIEW_ENGINE_OPERATORS_H_
