#ifndef DYNVIEW_TESTS_FUZZER_H_
#define DYNVIEW_TESTS_FUZZER_H_

#include <cstdint>
#include <set>
#include <string>

namespace dynview {

/// Knobs for one fuzz run. Everything is derived deterministically from
/// `seed`: the same config produces the same catalogs, the same DDL streams,
/// the same queries and the same report — run-twice determinism is itself
/// one of the suite's assertions.
struct FuzzConfig {
  uint64_t seed = 1;

  /// Independent scenarios per run. Each scenario builds its own evolving
  /// relation under I, registers 1-3 schematically heterogeneous sources
  /// (copy / partitioned / pivot views) and drives a DDL stream through it.
  int scenarios = 6;

  /// Queries checked against the differential oracle after every DDL step
  /// (and once before the stream starts).
  int queries_per_step = 4;

  /// Random DDL ops appended after the six-kind schedule (these may break
  /// the sources permanently — rejections and left-stale outcomes are valid
  /// deterministic results, wrong answers are not).
  int extra_steps = 2;

  /// When true, the primary system runs durable and every scenario crashes
  /// mid-DDL-stream (failed checkpoint, WAL survives), recovers into a
  /// fresh catalog, asserts the replayed head and answers match the
  /// pre-crash state, and then continues the stream.
  bool durable = false;
  std::string durable_dir;  // Scratch root; required when durable.

  /// Where minimized repro dumps land on failure; empty disables
  /// minimization and dumping (the report still records the failure).
  std::string repro_dir;

  /// Applies DYNVIEW_FUZZ_ITERS (scenario count) and DYNVIEW_FUZZ_SEED on
  /// top of `base` — the nightly soak's interface.
  static FuzzConfig FromEnv(FuzzConfig base);
  static FuzzConfig FromEnv() { return FromEnv(FuzzConfig()); }
};

/// What one fuzz run did and found. `Summary()` renders every counter
/// deterministically, so two runs of the same config can be compared as
/// strings.
struct FuzzReport {
  int triples = 0;   // (catalog state, DDL step, query) combinations checked.
  int checks = 0;    // Individual strategy comparisons inside those triples.
  int ddl_applied = 0;
  int ddl_rejected = 0;  // Invalid ops the evolver refused (catalog untouched).
  int remats = 0;        // Fenced materializations rebuilt by propagation.
  int left_stale = 0;    // Fenced materializations re-fenced instead.
  int warnings_seen = 0;
  int optimizer_checks = 0;    // Sec. 6 optimizer plans compared.
  int optimizer_refusals = 0;  // Queries it declined (kUnsupported).
  int warm_cold_checks = 0;    // Cold answers compared with their hit.
  int shape_checks = 0;     // Shape-tier hits compared with the cold twin.
  int shape_fallbacks = 0;  // Rebound queries whose literal guard failed.
  int commit_checks = 0;    // Warm answers across a rows-only commit.
  int commit_hits = 0;      // ... of them served by a plan cached before it.
  int candidate_checks = 0;  // Usable sources answered alone (each forced).
  int crashes_replayed = 0;
  int mismatches = 0;  // Oracle violations — any nonzero run is a failure.
  std::set<std::string> kinds_applied;  // DdlKindName of every applied op.
  std::string first_failure;  // Empty = clean run.
  std::string repro_path;     // Minimized repro dump (on failure).

  bool ok() const { return mismatches == 0 && first_failure.empty(); }
  std::string Summary() const;
};

/// Randomized-heterogeneity fuzzer with a differential oracle.
///
/// Each scenario: a seeded random relation I::base0, a random subset of
/// {copy, partitioned, pivot} sources registered and materialized over it,
/// and a DDL stream that deterministically exercises all six DdlKinds
/// (plus random tail ops). After every step, generated SchemaSQL/SQL
/// queries are answered six ways —
///
///   direct t1 (the reference), direct t8, the Sec. 6 optimizer's plan,
///   rewriting t1, rewriting t8 (twice, to cover the plan-cache hit path)
///
/// — and the oracle requires: byte-identical direct results across thread
/// counts, canonically identical (sorted) optimizer and rewriting results
/// vs the direct reference, identical status codes on errors, and
/// identical (source, code) warning sequences across the rewriting
/// systems. A warm-vs-cold arm then empties each rewriting system's plan
/// cache and answers twice: the cold answer and the hit must agree in
/// bytes and row order, warnings, and the per-answer grounding and row
/// counters. A shape arm answers each query and then the same shape with
/// other literals: that second answer (a shape-tier hit, or a full probe
/// when its literal guard fails) and its EXPLAIN must equal a cold twin's
/// byte for byte. A commit arm answers each query on a copy of the
/// catalog, commits a rows-only change to I::base0 and answers again: the
/// warm answer must equal a cold one at the new snapshot in bytes, row
/// order, warnings and EXPLAIN, with the sources unfenced and with them
/// fenced (the commit then fences the chosen one). A candidate arm
/// registers each source alone on a fresh twin, fenced like the primary's:
/// where it is usable, its rewriting must answer the reference's set, or
/// its bag under multiset. Queries the optimizer
/// declines to plan (kUnsupported: higher-order or multi-block) are
/// counted as refusals. In
/// durable mode every scenario additionally crashes mid-stream and must
/// replay to the exact pre-crash head and answers.
///
/// Failpoint: `fuzz.oracle` (match detail = the SQL text) injects a
/// synthetic mismatch, exercising the minimization + repro-dump plumbing.
class HeterogeneityFuzzer {
 public:
  explicit HeterogeneityFuzzer(FuzzConfig config) : config_(config) {}

  FuzzReport Run();

 private:
  FuzzConfig config_;
};

}  // namespace dynview

#endif  // DYNVIEW_TESTS_FUZZER_H_
