#ifndef DYNVIEW_ENGINE_EXEC_PLAN_H_
#define DYNVIEW_ENGINE_EXEC_PLAN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/expr_compile.h"
#include "engine/operators.h"
#include "relational/schema.h"
#include "relational/value.h"
#include "sql/ast.h"

namespace dynview {

/// One expression of the grouping operator (HAVING, a select item or an
/// ORDER BY key): its program over the group's representative row extended
/// by aggregate slots, and the aggregates feeding those slots.
struct GroupedExpr {
  struct Agg {
    AggFunc func = AggFunc::kCount;
    bool distinct = false;
    PreparedValue arg;  // Unused for COUNT(*).
  };
  std::shared_ptr<const CompiledExpr> program;
  std::vector<Agg> aggs;  // Slot order (CollectAggregates).
};

/// One first-order query compiled against the schemas of the relations it
/// reads: the join pipeline of its tuple variables, then projection or
/// grouping, DISTINCT, ORDER BY and LIMIT. Every name is resolved to a row
/// slot and every expression to a program when the pipeline is built; a
/// run only moves rows. Errors the build finds (a domain variable naming a
/// missing attribute, an unresolvable predicate, ...) are kept in the step
/// where evaluation meets them, so a run reports them in evaluation order,
/// after any data error that precedes them.
///
/// A pipeline holds no table: a run resolves each relation by name through
/// the run's pinned snapshot, which must have the schema epoch of the
/// version the pipeline was built against.
struct Pipeline {
  using Program = std::shared_ptr<const CompiledExpr>;

  /// One tuple variable of the FROM clause, in declaration order.
  struct Scan {
    Status unresolved;      // Raised before resolving (a surviving variable).
    bool missing = false;   // The relation did not resolve at build.
    size_t width = 0;       // Columns of the relation at build.
    Status bind_error;      // Raised after resolving (domain variables).
    std::vector<Program> pushed;  // Conjuncts fused into the scan.
    /// Equi-join keys against the working set (left) and this scan (right);
    /// both empty means a cross product. Unused on the first scan.
    std::vector<PreparedValue> lkeys, rkeys;
    std::vector<Program> post;  // Conjuncts evaluable after the join.
    /// `pushed`, the join keys (`left = right`) and `post` as SQL.
    std::vector<std::string> pushed_sql, key_sql, post_sql;
  };

  /// A projected output column.
  enum class Out : uint8_t {
    kStar,   // The whole working row.
    kSlot,   // Working row slot `index`.
    kLabel,  // The grounding's label value `index`.
    kValue,  // `value` over the working row.
  };
  struct OutCol {
    Out kind = Out::kValue;
    int index = 0;
    PreparedValue value;
  };

  /// An ORDER BY key: an output position (a select-list alias), else an
  /// expression over the working row (`grouped` under grouping).
  struct OrderKey {
    int output_pos = -1;
    bool descending = false;
    PreparedValue value;
    GroupedExpr grouped;
  };

  std::vector<Scan> scans;  // Ends at the first scan holding an error.
  Status tail_error;        // Raised after the scans, before the output.
  /// Single scan without grouping or a tail error: the scan, its pushed
  /// conjuncts and the projection run as one loop over the base rows.
  bool fused = false;
  size_t width = 0;  // Working row width after every join.
  Schema out_schema;

  bool grouped = false;
  std::vector<OutCol> proj;               // Not grouped.
  std::vector<PreparedValue> group_keys;  // Grouped.
  std::optional<GroupedExpr> having;
  std::vector<GroupedExpr> items;
  std::vector<OrderKey> order;
  bool distinct = false;
  int64_t limit = -1;
};

/// One evaluation of a pipeline: a grounding of a higher-order branch, or
/// the single run of a first-order one. Groundings that share a slot layout
/// share one pipeline, so this holds only what differs between them.
struct PipelineRun {
  uint32_t pipeline = 0;
  /// Comma-joined labels: the grounding span's detail, the engine.grounding
  /// failpoint match and a skipped source's warning name.
  std::string source;
  /// (database, relation) per scan, resolved by name at every run.
  std::vector<std::pair<std::string, std::string>> relations;
  std::vector<Value> labels;  // Out::kLabel values.
  /// Constant conjuncts (no column references) evaluated at build: the
  /// first error, raised before anything else runs, and whether one of
  /// them is not True (every scan is then empty).
  Status constant_error;
  bool infeasible = false;
};

/// One UNION branch.
struct BranchPlan {
  /// Raised when the run reaches this branch, after its guard check: a bind
  /// error, LIMIT on a UNION branch, SELECT * under global aggregation.
  Status deferred;
  bool higher_order = false;
  bool union_all = false;  // This branch's UNION [ALL] toward the next.

  std::vector<Pipeline> pipelines;
  std::vector<PipelineRun> runs;  // Higher order: one per grounding.
  /// Grounding counters recorded when a run starts the fan-out.
  uint64_t enumerated = 0;
  uint64_t pruned = 0;
  /// The result when no grounding contributes (or the error explaining why
  /// it cannot be formed).
  Result<Schema> empty_schema{Schema()};
  int64_t limit = -1;  // Over the union of the groundings.

  /// Global layer of a higher-order branch whose grouping, aggregation,
  /// DISTINCT or ORDER BY spans every grounding: it runs over the unioned
  /// groundings, which project its base expressions.
  std::optional<Pipeline> global;
  Status global_error;  // Raised after the groundings ran.
};

/// An executable plan: what QueryEngine::Build derives from a statement and
/// the names and schemas of one snapshot, and QueryEngine::Run executes at
/// any snapshot of the same schema epoch. Immutable once built; runs on
/// many threads share it. It holds names, labels and compiled programs,
/// never a snapshot, a table or a row count, so a cached plan keeps no
/// catalog version alive and no row commit outdates it.
struct ExecPlan {
  std::vector<BranchPlan> branches;
  /// False when a failpoint was armed while the plan was built: grounding
  /// enumeration may then have kept or dropped groundings a healthy catalog
  /// would not, so the plan must not outlive its answer.
  bool cacheable = true;
};

/// The estimate the answer path compares candidate plans by: the relation
/// scans of every run, summed over the branches. Groundings pruned at build
/// are gone; infeasible runs still count. It reads names only, never a row
/// count or a literal, so it is fixed within a schema epoch and the same
/// for every binding of a query shape.
uint64_t ScanEstimate(const ExecPlan& plan);

/// Renders `plan` for EXPLAIN: per branch, first-order or fan-out with its
/// grounding counts; per pipeline, each scan's relation in every grounding,
/// pushed conjuncts, join keys or cross product, then the output steps; then
/// the global layer. An error the run would raise is a `deferred:` line.
std::string Describe(const ExecPlan& plan);

}  // namespace dynview

#endif  // DYNVIEW_ENGINE_EXEC_PLAN_H_
