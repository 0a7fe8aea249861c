#ifndef DYNVIEW_INTEGRATION_INTEGRATION_H_
#define DYNVIEW_INTEGRATION_INTEGRATION_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analyze/analyzer.h"
#include "common/result.h"
#include "observe/metrics.h"
#include "core/translate.h"
#include "observe/observer.h"
#include "core/usability.h"
#include "core/view_definition.h"
#include "engine/query_engine.h"
#include "index/view_index.h"
#include "plan_cache/fingerprint.h"
#include "plan_cache/plan_cache.h"
#include "relational/catalog.h"
#include "schemasql/view_maintainer.h"
#include "storage/durable_catalog.h"

namespace dynview {

struct AuditReport;   // analyze/audit.h
struct WhatIfReport;  // analyze/audit.h
struct DdlOp;         // evolve/evolution.h

/// Construction knobs for IntegrationSystem: the engine's ExecConfig.
struct IntegrationOptions {
  ExecConfig exec;
};

/// Options for an AnswerGuarded call. `guards` bounds execution (deadline,
/// budgets) and selects the SourcePolicy applied when a source relation is
/// unavailable mid-query.
struct AnswerOptions {
  bool multiset = false;
  QueryGuards guards;
};

/// A guarded answer: the (possibly partial) result plus one warning per
/// source contribution that was skipped under SourcePolicy::kSkipAndReport
/// or fenced off as stale. An empty warning list means the result is
/// complete.
///
/// `observer` carries the query's trace and merged counters unless the
/// caller attached its own observer to `ctx` (that one receives them
/// instead, and this is null). Shared ownership lets callers keep the trace
/// past the next AnswerGuarded call.
///
/// `snapshot` / `snapshot_version` record the one catalog version every read
/// of this query observed. Re-executing the same query serially against
/// `snapshot` must reproduce `table` byte-for-byte — the consistency oracle
/// the chaos suite asserts under concurrent catalog mutation.
struct AnswerResult {
  Table table;
  std::vector<SourceWarning> warnings;
  std::shared_ptr<const QueryObserver> observer;
  uint64_t snapshot_version = 0;
  std::shared_ptr<const CatalogSnapshot> snapshot;

  /// True when the answer reused a cached plan of this exact query (Alg. 5.1
  /// rewrite and build skipped), which holds across commits that change
  /// rows only; false on every other path, including a stale miss (the
  /// schema epoch or a source's fence verdict changed) and a shape-tier hit
  /// that reused another binding's rewriting but built this one's plan
  /// (counted as `plan_cache.shape_hits`; a shape entry whose literal guard
  /// failed counts `plan_cache.shape_guard_failures`).
  /// `plan_fingerprint` is the normalized query hash (16 hex digits, exact
  /// mode) the exact tier keyed on.
  bool plan_cached = false;
  std::string plan_fingerprint;
};

/// Cumulative plan-cache outcomes since construction (ClearPlanCache drops
/// entries, not these counts): the plan_cache.* counters of
/// IntegrationSystem::metrics(). Hits, misses and invalidations are the
/// exact tier's (a stale miss counts as a miss and an invalidation); an
/// entry goes stale when the catalog's schema epoch moves or a source the
/// plan's probe visited changes its fence verdict, never on a commit that
/// changes rows only. An exact miss the shape tier then served counts a
/// shape hit, one whose literal guard failed a shape guard failure.
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
  uint64_t shape_hits = 0;
  uint64_t shape_guard_failures = 0;
};

/// A query template compiled once by IntegrationSystem::Prepare: the parsed
/// AST with `?` parameter markers plus its parameterized-shape fingerprint.
/// Immutable and shareable across threads; each ExecutePrepared clones the
/// template, substitutes positional values, and joins the normal cached
/// answer path (so repeats of the same substituted query hit the plan cache
/// without ever re-parsing SQL text).
class PreparedQuery {
 public:
  const std::string& sql() const { return sql_; }
  int num_params() const { return num_params_; }
  /// Parameterized-mode fingerprint (literals stripped): identifies the
  /// query *shape* independent of the values later bound.
  const std::string& fingerprint() const { return fp_hex_; }

 private:
  friend class IntegrationSystem;
  std::string sql_;
  std::shared_ptr<const SelectStmt> template_;
  int num_params_ = 0;
  std::string fp_hex_;
};

/// Options for IntegrationSystem::DefineView. `materialize` selects the
/// RegisterAndMaterializeSource path (I holds the data) over plain
/// RegisterSource; `multiset` is the semantics the analyzer hardens its
/// DV003/DV004 checks for.
struct DefineViewOptions {
  bool materialize = false;
  bool multiset = false;
};

/// A successfully defined source plus the (non-error) diagnostics the
/// analyzer attached to it. Warning diagnostics are also remembered: every
/// later AnswerGuarded call that rewrites onto this source re-surfaces them
/// on AnswerResult::warnings.
struct DefinedView {
  const ViewDefinition* view = nullptr;
  std::vector<Diagnostic> diagnostics;
};

/// Commit tag the schema evolver stamps on a source re-materialization
/// commit: "evolve.remat#<index>|db::rel,db::rel,...". The WAL persists it
/// verbatim, so replay re-advances source <index>'s fence to the replayed
/// commit version AND restores its materialization refs to exactly the
/// partition set that commit installed — crash recovery lands on the same
/// staleness state the evolution reached.
std::string EvolveRematTag(size_t index, const std::vector<TableRef>& refs);

/// Parses an EvolveRematTag; returns false when `tag` is not one.
bool ParseEvolveRematTag(const std::string& tag, size_t* index,
                         std::vector<TableRef>* refs);

/// The Fig. 6 architecture. The integration schema I is a stable,
/// first-order schema designed for the new application; every data source
/// (legacy schema, interface schema, or index) is registered as an SQL or
/// dynamic view *over* I whose materialization carries the actual data.
/// Queries are posed against I and answered by rewriting them onto the
/// registered sources (local-as-view query answering). The Sec. 6
/// optimizer is a library callers build over sources() and indexes().
class IntegrationSystem {
 public:
  /// `integration_db` names the database inside `catalog` holding I's
  /// schema. I's tables may be *virtual*: present in the catalog (for
  /// binding and statistics) but possibly empty, with the data living only
  /// under the sources.
  IntegrationSystem(Catalog* catalog, std::string integration_db);
  IntegrationSystem(Catalog* catalog, std::string integration_db,
                    const IntegrationOptions& options);

  /// The analyzed registration path (CREATE VIEW through the lint pass):
  /// runs the static analyzer (DV001..DV006) against a pinned catalog
  /// snapshot and *rejects* the definition with InvalidArgument when any
  /// error-severity diagnostic fires — a Def. 3.1-violating body (DV002)
  /// never becomes a source. Warnings and notes admit the view; they come
  /// back on DefinedView::diagnostics, tally into the `analyze.*` metrics
  /// family (metrics()), and warnings re-surface on
  /// AnswerResult::warnings whenever the source answers a query.
  Result<DefinedView> DefineView(const std::string& create_view_sql,
                                 const DefineViewOptions& options = {});

  /// Re-runs the analyzer over every registered source against the current
  /// catalog snapshot — the definition-time checks plus DV007 (stale
  /// materialization fence). Diagnostics carry the registration index in
  /// Diagnostic::statement. Deterministic for a fixed catalog version.
  std::vector<Diagnostic> LintSources() const;

  /// Re-lints ONE registered source against `snap` (the schema evolver's
  /// per-affected-source pass). Same checks and determinism as LintSources;
  /// diagnostics carry `index` in Diagnostic::statement and tally into
  /// metrics().
  std::vector<Diagnostic> LintSource(size_t index,
                                     const CatalogSnapshot& snap) const;

  /// The system's cumulative counters: `plan_cache.*` (every answer) and
  /// `analyze.*` / `analyze.audit.*` (DefineView, lint, audit and what-if
  /// calls). Safe to read while other threads answer; the server `stats`
  /// verb reports it whole.
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Copies the cumulative `analyze.*` / `analyze.audit.*` tallies — and
  /// only those — into `sink` as gauges. The answer body calls this at query
  /// end so the per-answer observer export (AnswerResult::observer) carries
  /// the analysis counters alongside the engine's own. The cumulative
  /// plan_cache.* counters stay out: as gauges they would shadow the
  /// answer's own per-query plan_cache.* counts.
  void ExportAnalyzeMetrics(MetricsRegistry* sink) const;

  /// Workload-level static audit (analyze/audit.h) over the current catalog
  /// snapshot: dependency graph + DV100..DV103 redundancy/reachability
  /// findings. Tallies into metrics() (analyze.audit.*).
  AuditReport AuditWorkload() const;

  /// Blast-radius prediction for `op` without applying it: which sources
  /// re-lint clean, which would be left fenced, and which rematerializations
  /// are O(base) — the static mirror of SchemaEvolver's propagation.
  WhatIfReport WhatIfAudit(const DdlOp& op) const;

  /// Registers a source described by `create_view_sql` (a view over I) and
  /// materializes it from I's current contents into `catalog`. Use when I
  /// holds the data and sources are derived (warehouse loading direction).
  /// Unlike DefineView, this path does NOT run the analyzer (seed workloads
  /// and tests register known-good definitions directly).
  Result<const ViewDefinition*> RegisterAndMaterializeSource(
      const std::string& create_view_sql);

  /// Registers a source whose materialization already exists in the catalog
  /// (the usual legacy-integration direction: the sources ARE the data).
  Result<const ViewDefinition*> RegisterSource(
      const std::string& create_view_sql);

  /// Registers a view-described index built against I.
  Result<const ViewIndex*> RegisterIndex(const std::string& create_index_sql);

  // --- Durability (storage/durable_catalog.h) ----------------------------

  /// Binds this system to `dir`: recovers catalog, sources, indexes and
  /// fences from the newest valid snapshot + WAL replay (restoring the
  /// exact pre-crash head version, so stale fencing and DV007 hold across
  /// restarts), then persists every subsequent catalog commit and
  /// registration. Two intended shapes:
  ///   * fresh system + existing dir  — the restart/recovery path;
  ///   * populated system + fresh dir — "start persisting now" (current
  ///     state is captured by the initial checkpoint).
  /// Recovery warnings (torn WAL tail, skipped snapshot) surface once on
  /// the next AnswerGuarded result and stay readable via recovery_report().
  Status OpenDurable(const std::string& dir);

  /// Writes a snapshot (catalog + registrations) and truncates the WAL.
  Status Checkpoint();

  /// Final checkpoint + detach. The report survives for inspection.
  Status CloseDurable();

  bool durable() const { return durable_ != nullptr; }
  const RecoveryReport& recovery_report() const { return recovery_report_; }
  /// storage.* counters of the open durable attachment (null when closed).
  const MetricsRegistry* storage_metrics() const {
    return durable_ != nullptr ? &durable_->metrics() : nullptr;
  }

  /// An incremental maintainer for registered source `source_index`, with
  /// the fence bound and the commit tag set to
  /// "maintainer.delta#<source_index>" — the tag the WAL persists, so
  /// recovery re-advances THIS source's fence to the replayed commit
  /// version. `default_target_db` routes materialization rows of views
  /// without an explicit target database (usually the materialization db).
  Result<ViewMaintainer> CreateMaintainer(size_t source_index,
                                          const std::string& default_target_db);

  /// Answers `sql` (a first-order query on I) from the cheapest of its
  /// candidate plans (Sec. 6): the rewriting (Alg. 5.1) onto each usable
  /// source and, when some usable source is fenced and fresh at the pinned
  /// snapshot, the direct plan on I. Candidates are compared by ScanEstimate
  /// of their built plans; ties go to sources in registration order, then
  /// to the direct plan. When no source can answer, the direct plan on I
  /// does (the architecture permits locally stored integration data).
  /// `options.multiset` demands a bag-correct rewriting (Thm. 5.4),
  /// otherwise set-correctness (Thm. 5.2) suffices; either way every
  /// candidate answers the same, so the choice changes cost, not answers.
  /// Unparseable SQL fails with the parser's positioned kParseError; a
  /// query neither a source nor I can answer fails with the rewrite's
  /// NotFound.
  ///
  /// Executes under `options.guards`: the query observes the deadline /
  /// cancellation / row / byte budgets, and transient source failures
  /// degrade per `options.guards.source_policy` — kSkipAndReport yields a
  /// partial result whose `warnings` name each skipped source. Guard trips
  /// surface as kDeadlineExceeded / kCancelled / kResourceExhausted
  /// statuses. `ctx`, when given, allows the caller to cancel concurrently
  /// via ctx->Cancel(); it must outlive the call and carry the same guards.
  ///
  /// The whole call runs against ONE catalog snapshot, pinned on the query
  /// context up front (a caller-pinned snapshot of this catalog is honored —
  /// the chaos oracle uses that to re-execute against a recorded version).
  /// Registered sources whose materialization is stale against that snapshot
  /// are fenced off: no candidate reads them (with none left, the baseline
  /// direct plan on I answers), each fenced source adds a deterministic
  /// warning, and the `catalog.stale_path` counter is bumped once per fence.
  /// Safe to call from several threads on one IntegrationSystem.
  Result<AnswerResult> AnswerGuarded(const std::string& sql,
                                     const AnswerOptions& options,
                                     QueryContext* ctx = nullptr);

  /// Compiles `sql` (which may hold positional `?` parameters) into a
  /// reusable template. Parsing and parameter counting happen once, here.
  Result<std::shared_ptr<PreparedQuery>> Prepare(const std::string& sql);

  /// Executes a prepared template with `params` bound positionally (params
  /// [i] replaces the i-th `?`, left-to-right). Semantically identical to
  /// AnswerGuarded over the substituted SQL, but skips parsing entirely and
  /// shares cached plans across repeats: the exact tier keys on the
  /// substituted statement, whose cached plan was built for those values. A
  /// new binding misses there and may reuse the shape tier's rewriting,
  /// but only when the implication answers Alg. 5.1 took from the literals
  /// replay equal over the new values (LiteralGuard).
  Result<AnswerResult> ExecutePrepared(const PreparedQuery& prepared,
                                       const std::vector<Value>& params,
                                       const AnswerOptions& options = {},
                                       QueryContext* ctx = nullptr);

  /// Drops every cached plan (and the raw-SQL memo). Benches use this to
  /// measure the cold path; registration paths clear the plans internally.
  void ClearPlanCache();

  /// Cumulative plan-cache counters since construction, read from metrics().
  PlanCacheStats plan_cache_stats() const;

  /// The rewriting onto the cheapest usable source for `sql`, without
  /// executing it (against the current catalog snapshot). AnswerGuarded
  /// may still answer from the direct plan on I, when a fenced source is
  /// fresh and that plan is cheaper. Aggregate queries are additionally
  /// offered to aggregate-defined sources via the Sec. 5.2 re-aggregation
  /// machinery (Ex. 5.3).
  Result<TranslationResult> Rewrite(const std::string& sql, bool multiset);

  /// EXPLAIN: the plan AnswerGuarded(sql, options) runs, not run. It takes
  /// the answer's own planning step (a hit plans nothing; a miss caches
  /// what the next answer runs) and renders the answering source and its
  /// rewriting (or the direct plan on I), each source's verdict with every
  /// candidate's estimate, the winner, and Describe of the executable plan
  /// — never the snapshot version or the cache state. Parse errors are
  /// AnswerGuarded's.
  Result<std::string> ExplainOptimized(const std::string& sql,
                                       const AnswerOptions& options = {});

  /// Keyword search over I (Sec. 1.1.2): rows of `interface_table` (an
  /// unpivoted (id, attribute, value) interface schema) whose value contains
  /// `keyword`. A registered inverted index answers when its access path
  /// reads that table and its database has not committed since the build;
  /// otherwise a scan does.
  Result<Table> KeywordSearch(const std::string& interface_table,
                              const std::string& keyword);

  const std::vector<std::shared_ptr<ViewDefinition>>& sources() const {
    return sources_;
  }

  const std::vector<std::shared_ptr<ViewIndex>>& indexes() const {
    return indexes_;
  }

  QueryEngine* engine() { return &engine_; }
  Catalog* catalog() const { return catalog_; }
  const std::string& integration_db() const { return integration_db_; }

 private:
  /// One plan-cache entry: everything a repeat of the same normalized query
  /// at the same schema epoch needs to skip parse → rewrite (Alg. 5.1) →
  /// build. Alg. 5.1 and the build read view definitions, names and
  /// schemas, which the epoch covers, and the sources' fences, which
  /// `fences` records. Statements are immutable templates — a build clones
  /// them, because the binder annotates the AST in place. `exec` is the
  /// rewriting built for the entry's epoch (groundings enumerated,
  /// pipelines compiled), so a hit only runs it; null when the build ran
  /// with a failpoint armed, and then every hit builds afresh. Entries are
  /// shared by concurrent answers and never mutated after insertion.
  ///
  /// A shape-tier entry is the same record under the query's parameterized
  /// shape: `rewritten` is a template whose query literals carry their
  /// Expr::literal_slot, `guard` the probe's literal-dependent answers, and
  /// `exec` is null. Its fences and verdicts hold no query literal.
  struct CachedPlan {
    /// What the plan builds: the chosen source's rewriting, or the query
    /// itself when the direct plan on I won on cost. Null when no source
    /// answers and the direct plan does.
    std::shared_ptr<const SelectStmt> rewritten;
    const ViewDefinition* chosen = nullptr;  // Null = direct plan on I.
    /// The fence verdict (IsStaleAgainst) of every source, in registration
    /// order. A lookup re-evaluates them at its pinned snapshot
    /// (FencesHold); a source fenced off here adds a stale warning to every
    /// answer (StaleWarnings).
    std::vector<std::pair<const ViewDefinition*, bool>> fences;
    /// EXPLAIN's analysis lines: per source in registration order, stale
    /// (DV007), not usable (DV004 + reason) or usable with its estimate;
    /// then the direct plan's estimate when it was a candidate; then the
    /// winner (+ the chosen source's analysis warnings).
    std::vector<std::string> verdicts;
    std::shared_ptr<const ExecPlan> exec;
    std::shared_ptr<const LiteralGuard> guard;  // Shape entries only.
  };

  /// PlanParsed's entry, the plan to run, whether it was a hit, and the
  /// rewrite's NotFound when a miss found no source.
  struct PlannedQuery {
    std::shared_ptr<CachedPlan> plan;  // Never mutated once cached.
    std::shared_ptr<const ExecPlan> exec;
    bool cached = false;
    Status no_source;
  };

  /// A parsed query ready for the answer body: the immutable statement (the
  /// binder annotates in place, so every consumer works on a clone) plus
  /// its exact fingerprint — `cache_key` is the multiset flag + full
  /// normalized text, `fp_hex` the display hash. `repeat` marks a text the
  /// raw-SQL memo already held: repeated text is the exact tier's traffic,
  /// so its misses skip the shape tier (PlanMiss).
  struct ParsedQuery {
    std::shared_ptr<const SelectStmt> stmt;
    std::string cache_key;
    std::string fp_hex;
    bool repeat = false;
  };
  static ParsedQuery KeyStatement(std::unique_ptr<SelectStmt> stmt,
                                  bool multiset);

  /// `sql` parsed and keyed through the raw-SQL memo.
  Result<ParsedQuery> ParseMemoized(const std::string& sql, bool multiset);

  /// The candidate RewriteOver chose: the source (null for the direct plan
  /// on I), its translation (for the direct plan, `translation.query` is a
  /// copy of the query) and the plan built to estimate it (null when there
  /// was nothing to compare).
  struct Choice {
    const ViewDefinition* source = nullptr;
    TranslationResult translation;
    std::shared_ptr<const ExecPlan> exec;
  };

  /// Costed source choice against the snapshot `qc` pins: translators
  /// resolve view bodies and I's schema through it, and fenced sources
  /// whose materialization is stale there are skipped. Every other source
  /// is probed with Alg. 5.1. With `with_direct`, the direct plan on I joins
  /// the usable sources when one of them is fenced and fresh. Candidates
  /// are built under `qc` and the one with the least ScanEstimate wins;
  /// ties go to registration order, the direct plan last. When `plan` is
  /// given, every source appends its fence verdict to plan->fences and a
  /// verdict line, and plan->chosen names the winning source. `guard`,
  /// when given, records every literal-dependent implication answer of
  /// every source probed. NotFound when no source is usable.
  Result<Choice> RewriteOver(const SelectStmt& query, bool multiset,
                             QueryContext* qc, bool with_direct,
                             CachedPlan* plan, LiteralGuard* guard);

  /// The plan-cache key of `shape` in the shape tier.
  static std::string ShapeKey(const QueryShape& shape, bool multiset);

  /// Whether every fence verdict `plan` recorded still holds at `snap`.
  static bool FencesHold(const CachedPlan& plan, const CatalogSnapshot& snap);

  /// One stale-materialization warning per source `plan` fenced off, in
  /// registration order, rendered at `snap`: a warm answer's warnings equal
  /// a cold answer's at the same snapshot.
  static std::vector<SourceWarning> StaleWarnings(const CachedPlan& plan,
                                                  const CatalogSnapshot& snap);

  /// An exact-tier miss: the shape tier's choice when its literal guard
  /// holds for this query's values, else the costed choice (RewriteOver)
  /// at `qc`'s snapshot, recording a guard and caching the choice under the
  /// shape. A repeated text (ParsedQuery::repeat) runs the costed choice
  /// alone. The returned entry has no executable plan; `exec` receives the
  /// plan the costed choice built for its winner, and `no_source` the
  /// rewrite's NotFound when no source answers.
  std::shared_ptr<CachedPlan> PlanMiss(const ParsedQuery& query, bool multiset,
                                       QueryContext* qc, MetricsRegistry* sink,
                                       std::shared_ptr<const ExecPlan>* exec,
                                       Status* no_source);

  /// The planning step of an answer, shared with EXPLAIN: plan-cache
  /// lookup at the schema epoch `qc`'s snapshot carries (the entry's fence
  /// verdicts re-checked at that snapshot), the costed choice on a miss,
  /// and a build unless the entry or the choice carries an executable plan.
  /// A costed choice is cached here, before it runs; a direct plan taken
  /// because no source answers is left to the caller. Cache outcomes count
  /// on metrics() and on `sink` when given.
  PlannedQuery PlanParsed(const ParsedQuery& query, bool multiset,
                          QueryContext* qc, MetricsRegistry* sink);
  void Remember(const std::string& key, uint64_t epoch,
                std::shared_ptr<CachedPlan> plan, MetricsRegistry* sink);
  void CountPlanCache(const char* name, uint64_t n, MetricsRegistry* sink);

  /// The one answer body behind AnswerGuarded and ExecutePrepared: pins the
  /// snapshot, attaches the observer, plans (PlanParsed), runs, falls back
  /// to the direct plan on I, and assembles warnings.
  Result<AnswerResult> AnswerParsed(const ParsedQuery& query,
                                    const AnswerOptions& options,
                                    QueryContext* ctx);

  /// The warning diagnostics DefineView attached to `source`, rendered
  /// "CODE [anchor]: message".
  std::vector<std::string> AnalysisWarnings(const ViewDefinition* source) const;

  /// Registration cores without the durability echo (the restore path uses
  /// them so replaying a WAL never re-appends to it).
  Result<const ViewDefinition*> RegisterSourceInternal(
      const std::string& create_view_sql);
  /// Appends `view` to the sources and drops every cached plan.
  const ViewDefinition* AddSource(ViewDefinition view);
  Result<const ViewDefinition*> RegisterAndMaterializeInternal(
      const std::string& create_view_sql);

  /// Durably logs a registration ("source"/"index" WAL blob). No-ops when
  /// durability is closed; called by the public registration paths only.
  Status AppendSourceRecord(const ViewDefinition* view);
  Status AppendIndexRecord(const ViewIndex& index);
  std::string EncodeSourceRecord(const ViewDefinition& view) const;
  std::string EncodeIndexRecord(const ViewIndex& index) const;
  Status RestoreSourceRecord(const std::string& payload);
  Status RestoreIndexRecord(const std::string& payload);
  /// Everything blob-shaped a checkpoint must persist (registration order).
  std::vector<std::pair<std::string, std::string>> RegistrationExtras() const;
  /// Moves pending recovery warnings (drained once) to the front of `out`.
  void DrainRecoveryWarnings(std::vector<SourceWarning>* out);

  Catalog* catalog_;
  std::string integration_db_;
  QueryEngine engine_;
  std::vector<std::shared_ptr<ViewDefinition>> sources_;
  std::vector<std::shared_ptr<ViewIndex>> indexes_;
  /// Warning/note diagnostics DefineView attached to each admitted source,
  /// re-surfaced on AnswerResult::warnings when the source answers a query.
  std::map<const ViewDefinition*, std::vector<Diagnostic>> source_diags_;
  /// The system registry (metrics()): cumulative plan_cache.* and analyze.*
  /// counters, written from every answering, linting and auditing thread.
  mutable MetricsRegistry metrics_;

  /// Normalized-fingerprint plan cache with two key spaces, both pinned to
  /// the schema epoch of the snapshot they were planned at: the exact tier
  /// (multiset flag + exact fingerprint, ParsedQuery::cache_key) and,
  /// consulted only after an exact miss, the shape tier (ShapeKey: multiset
  /// flag + parameterized shape). Every lookup re-checks the entry's fence
  /// verdicts. What else a plan reads — sources_, indexes_ and
  /// source_diags_ — clears the cache whenever it changes.
  mutable ShardedLruCache<CachedPlan> plan_cache_;

  /// First cache level: raw SQL text (+ multiset flag) → parsed query.
  /// Repeated identical strings skip parsing AND fingerprinting, also when
  /// their plan went stale. Bounded, dropped wholesale at capacity; never
  /// needs registration-time clearing because the parse and fingerprint are
  /// pure functions of the text.
  mutable std::mutex memo_mu_;
  mutable std::unordered_map<std::string, ParsedQuery> raw_memo_;

  /// Declared last: destroying the attachment runs a final checkpoint whose
  /// blob_provider still reads sources_/indexes_ above.
  RecoveryReport recovery_report_;
  std::mutex recovery_warn_mu_;
  std::vector<SourceWarning> pending_recovery_warnings_;
  std::unique_ptr<DurableCatalog> durable_;
};

}  // namespace dynview

#endif  // DYNVIEW_INTEGRATION_INTEGRATION_H_
