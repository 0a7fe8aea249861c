#ifndef DYNVIEW_OBSERVE_METRICS_H_
#define DYNVIEW_OBSERVE_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

namespace dynview {

/// Canonical counter and gauge names. Scheme: `<subsystem>.<what>`, all
/// lowercase, dot-separated. Each family lives on one owner's
/// MetricsRegistry: the per-query families count events/rows over one query
/// (gauges there are set once at query end by the driving thread); the
/// server.*, plan_cache.*, analyze.* and storage.* families count over the
/// life of their owner (see docs/ARCHITECTURE.md "Observability").
///
/// Counters whose value is independent of `ExecConfig::num_threads` (the
/// stable cross-thread-count oracles used by the determinism suite) are
/// marked [invariant]; `morsels.executed` is the deliberate exception — the
/// morsel split depends on the worker count by design.
namespace counters {
inline constexpr char kRowsScanned[] = "rows.scanned";    // [invariant]
inline constexpr char kRowsJoined[] = "rows.joined";      // [invariant]
inline constexpr char kRowsUnioned[] = "rows.unioned";    // [invariant]
inline constexpr char kMorselsExecuted[] = "morsels.executed";
inline constexpr char kGroundingsEnumerated[] =
    "groundings.enumerated";                              // [invariant]
inline constexpr char kGroundingsPruned[] =
    "groundings.pruned_notfound";                         // [invariant]
inline constexpr char kGroundingsEvaluated[] =
    "groundings.evaluated";                               // [invariant]
inline constexpr char kSourceRetries[] = "source.retries";   // [invariant]
inline constexpr char kSourcesSkipped[] = "sources.skipped"; // [invariant]
inline constexpr char kFailpointTrips[] = "failpoint.trips"; // [invariant]
inline constexpr char kCatalogStalePath[] =
    "catalog.stale_path";                                 // [invariant]
inline constexpr char kPivotMultiplicityDropped[] =
    "pivot.multiplicity_dropped";                         // [invariant]
// Gauges (set at query end from QueryContext accounting).
inline constexpr char kBudgetRowsCharged[] = "budget.rows_charged";
inline constexpr char kBudgetBytesCharged[] = "budget.bytes_charged";
// Compiled query path: plan cache outcomes and expression compilation.
// All six plan_cache counters are decided on the driving thread before any
// worker runs, and exprs_flattened counts distinct programs inserted into
// the program cache (raced compiles insert once) — thread-count invariant.
// The plan_cache counters land twice: on the answer's observer and,
// cumulatively, on the IntegrationSystem's registry (its metrics()).
inline constexpr char kPlanCacheHits[] = "plan_cache.hits";  // [invariant]
inline constexpr char kPlanCacheMisses[] =
    "plan_cache.misses";                                     // [invariant]
inline constexpr char kPlanCacheEvictions[] =
    "plan_cache.evictions";                                  // [invariant]
inline constexpr char kPlanCacheInvalidations[] =
    "plan_cache.invalidations";                              // [invariant]
// The plan cache's shape tier, consulted after an exact miss: a shape entry
// whose literal guard held (its rewriting reused) or failed (full probe).
inline constexpr char kPlanCacheShapeHits[] =
    "plan_cache.shape_hits";                                 // [invariant]
inline constexpr char kPlanCacheShapeGuardFailures[] =
    "plan_cache.shape_guard_failures";                       // [invariant]
inline constexpr char kExprsFlattened[] =
    "compile.exprs_flattened";                               // [invariant]
// Durable catalog storage (WAL + snapshot checkpoints). Owned by the
// DurableCatalog's registry, not the per-query one: these count storage
// events across the life of one durable attachment.
inline constexpr char kStorageWalAppends[] = "storage.wal_appends";
inline constexpr char kStorageWalBytes[] = "storage.wal_bytes";
inline constexpr char kStorageReplayedRecords[] =
    "storage.replayed_records";
inline constexpr char kStorageTornTail[] = "storage.torn_tail";
inline constexpr char kStorageCheckpoints[] = "storage.checkpoints";
// Query server (src/server/) counter family. Owned by the QueryServer's
// registry, not a per-query one: these count connection and admission
// events across the life of one server, and are exported by
// QueryServer::MetricsSnapshot() / the wire "stats" verb under exactly
// these names.
inline constexpr char kServerAccepted[] = "server.connections_accepted";
inline constexpr char kServerClosed[] = "server.connections_closed";
inline constexpr char kServerRequests[] = "server.requests";
inline constexpr char kServerAdmitted[] = "server.requests_admitted";
inline constexpr char kServerQueued[] = "server.requests_queued";
inline constexpr char kServerShedQueueFull[] = "server.shed_queue_full";
inline constexpr char kServerShedSessionCap[] = "server.shed_session_cap";
inline constexpr char kServerShedPool[] = "server.shed_pool_backpressure";
inline constexpr char kServerBadFrames[] = "server.bad_frames";
inline constexpr char kServerOversizedFrames[] = "server.oversized_frames";
inline constexpr char kServerDisconnectCancels[] = "server.disconnect_cancels";
inline constexpr char kServerChunksSent[] = "server.chunks_sent";
inline constexpr char kServerBytesSent[] = "server.bytes_sent";
inline constexpr char kServerFailpointTrips[] = "server.failpoint_trips";
// Static analysis (DefineView / dynview-lint) tallies, cumulative on the
// IntegrationSystem's registry.
inline constexpr char kAnalyzeChecksRun[] = "analyze.checks_run";
inline constexpr char kAnalyzeDiagnostics[] = "analyze.diagnostics";
inline constexpr char kAnalyzeErrors[] = "analyze.errors";
inline constexpr char kAnalyzeWarnings[] = "analyze.warnings";
inline constexpr char kAnalyzeNotes[] = "analyze.notes";
// Workload audit (src/analyze/audit.cc) tallies: whole-audit runs, view
// pairs offered to the containment checker, findings by code, and what-if
// predictions computed.
inline constexpr char kAuditRuns[] = "analyze.audit.runs";
inline constexpr char kAuditPairsChecked[] = "analyze.audit.pairs_checked";
inline constexpr char kAuditDuplicates[] = "analyze.audit.duplicates";
inline constexpr char kAuditSubsumed[] = "analyze.audit.subsumed";
inline constexpr char kAuditShadowed[] = "analyze.audit.shadowed";
inline constexpr char kAuditUnused[] = "analyze.audit.unused";
inline constexpr char kAuditWhatIfRuns[] = "analyze.audit.whatif_runs";
}  // namespace counters

/// A registry of named counters and gauges, safe to use from any thread at
/// any time: one mutex guards both maps, so `Add`, `Set`, `Merged` and
/// `Value` may interleave freely (a reader sees some prefix of the
/// increments, never a torn map).
///
/// Two kinds of owner share this one type:
///   * a query's observer (observe/observer.h) holds the per-query family,
///     written by the engine's workers at morsel granularity;
///   * long-lived components hold cumulative families: the QueryServer
///     (server.*), the IntegrationSystem (plan_cache.*, analyze.*) and the
///     DurableCatalog (storage.*). The wire `stats` verb reads them all.
///
/// Because addition commutes, the merged value of every counter is a
/// deterministic function of the *set* of increments — independent of
/// thread scheduling — which is what makes counters usable as test oracles.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Adds `delta` to counter `name`. Call at morsel/batch granularity,
  /// never per row.
  void Add(const char* name, uint64_t delta);

  /// Sets gauge `name` to `value` (last write wins).
  void Set(const char* name, uint64_t value);

  /// Counters, then gauges (a gauge wins over a counter of the same name),
  /// in lexicographic name order.
  std::map<std::string, uint64_t> Merged() const;

  /// Value of one counter/gauge, the gauge when both exist (0 when never
  /// touched).
  uint64_t Value(const std::string& name) const;

  /// One `name=value` line per merged entry, sorted by name — the flat
  /// export format the benches attach to their BENCH_*.json counters.
  std::string ToFlatText() const;

  /// Forgets every counter and gauge.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, uint64_t, std::less<>> counters_;
  std::map<std::string, uint64_t, std::less<>> gauges_;
};

}  // namespace dynview

#endif  // DYNVIEW_OBSERVE_METRICS_H_
