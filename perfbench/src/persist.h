// The storage side every workload shares: one writer applying one-row
// maintainer deltas to a durable federation (fsync on every commit), with a
// Checkpoint every fixed number of commits, and restarts that replay the WAL
// written since the last checkpoint.

#ifndef PERFBENCH_PERSIST_H_
#define PERFBENCH_PERSIST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "federation.h"

namespace perfbench {

/// Commits between two Checkpoint() calls.
inline constexpr uint64_t kCheckpointEvery = 64;

/// Longest commit slice of a round in the read-only workloads: on a slow
/// disk a round commits fewer pairs instead of outgrowing its second.
inline constexpr double kCommitSliceMaxS = 0.2;

/// The state a restart must reproduce: head version and the facts of
/// I::stock and of the s2 relation that received the last insert.
struct HeadState {
  uint64_t version = 0;
  Digest base;
  Digest materialized;
  std::string company;
};

/// Applies insert/delete pairs of delta rows through the s2 maintainer, so
/// the base size never changes: an even number of commits after the base
/// version the head holds exactly the base facts, after an odd one the base
/// plus the row in flight (InFlightRow). Not thread-safe; one writer thread.
class DeltaWriter {
 public:
  /// `fed` must already be durable (OpenDurable on `dir`). `twin`, when
  /// given, is a non-durable copy of the same federation on which the traced
  /// run times the maintainer alone.
  DeltaWriter(Federation* fed, const StockData* data, std::string dir,
              Federation* twin);

  dynview::Status Init();

  /// Non-null: record layer spans and samples (the traced run). Switch only
  /// between two Step() calls, so the twin sees whole pairs.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// One pair of commits, then a checkpoint when the schedule says so.
  /// Records the insert's latency (ApplyInserts call to return).
  dynview::Status Step();

  /// Off: commits never trigger the scheduled checkpoint (building a WAL of
  /// a stated length).
  void set_checkpoint_on_schedule(bool on) { on_schedule_ = on; }
  dynview::Status Checkpoint();

  /// Marks the current head, which must hold exactly the base facts, as the
  /// base version InFlightRow counts from.
  void Rebase();
  /// The delta row present at catalog version `version` (at or after the
  /// base version), or nullopt when the head there holds the base facts.
  std::optional<dynview::Row> InFlightRow(uint64_t version) const;

  uint64_t base_version() const { return base_version_; }
  uint64_t commits() const { return commits_; }
  const std::vector<double>& insert_us() const { return insert_us_; }

  /// (WAL bytes + snapshot bytes) ÷ encoded bytes of the delta rows, summed
  /// over complete checkpoint intervals. Byte counts only, so it repeats
  /// exactly for a given data size.
  double WriteAmp() const;
  /// WAL bytes per commit over complete checkpoint intervals.
  double WalBytesPerCommit() const;
  /// Traced run only: Checkpoint() durations, EncodeDatabasePayload over the
  /// databases a commit touches, and ApplyInserts on the non-durable twin.
  const std::vector<double>& checkpoint_us() const { return checkpoint_us_; }
  const std::vector<double>& encode_us() const { return encode_us_; }
  const std::vector<double>& delta_us() const { return delta_us_; }

 private:
  friend dynview::Result<HeadState> BuildCrashImage(
      DeltaWriter* writer, const std::string& image, int pairs);
  dynview::Status Apply(bool insert, const dynview::Row& row);
  uint64_t WalBytes() const;

  Federation* fed_;
  const StockData* data_;
  std::string dir_;  // The durable directory of `fed_`.
  Tracer* tracer_ = nullptr;
  Federation* twin_;
  std::optional<dynview::ViewMaintainer> maintainer_;
  std::optional<dynview::ViewMaintainer> twin_maintainer_;
  uint64_t base_version_ = 0;
  uint64_t base_row_ = 0;  // DeltaRow index of the first pair after Rebase.
  uint64_t commits_ = 0;
  uint64_t next_row_ = 0;
  bool on_schedule_ = true;
  std::vector<double> insert_us_;
  std::vector<double> checkpoint_us_;
  std::vector<double> encode_us_;
  std::vector<double> delta_us_;
  // Checkpoint-interval byte accounting.
  uint64_t interval_commits_ = 0;
  uint64_t interval_user_bytes_ = 0;
  uint64_t interval_wal_start_ = 0;
  uint64_t amp_store_bytes_ = 0;
  uint64_t amp_user_bytes_ = 0;
  uint64_t amp_wal_bytes_ = 0;
  uint64_t amp_commits_ = 0;
};

HeadState CaptureHead(const dynview::Catalog& catalog,
                      const std::string& company);

/// Checkpoints, commits `pairs` pairs plus one insert (2·pairs + 1 WAL
/// records) and copies the durable directory to `image` — the state a crash
/// right after the last commit leaves — then deletes the extra row again
/// and rebases the writer. Returns the head a restart from `image` must
/// recover.
dynview::Result<HeadState> BuildCrashImage(DeltaWriter* writer,
                                           const std::string& image, int pairs);

/// True when a restart from `dir` recovers `want` after replaying exactly
/// `records` WAL records; `error` says what differed otherwise. `seconds`
/// receives the OpenDurable time.
bool RestartMatches(const std::string& dir, size_t num_threads,
                    const HeadState& want, uint64_t records, double* seconds,
                    std::string* error);

/// Copies the regular files of `from` into a fresh directory `to`.
bool CopyDir(const std::string& from, const std::string& to);

/// The storage half of a run: a writer on a durable federation and a crash
/// image restarted from once per round. Reports commit latency and restart
/// time as quiet-host estimates over rounds.
class StorageBench {
 public:
  /// `fed` is durable on `durable_dir`; `scratch` holds the crash image and
  /// the restart copies. `twin` as for DeltaWriter.
  StorageBench(Federation* fed, const StockData* data, std::string durable_dir,
               std::string scratch, size_t num_threads, Federation* twin);

  /// Initialises the writer and builds a crash image of `replay_pairs`
  /// pairs plus one insert.
  dynview::Status Prepare(int replay_pairs);

  DeltaWriter& writer() { return writer_; }
  const DeltaWriter& writer() const { return writer_; }

  /// Closes a round: the p50 of the round's timed inserts, then one timed
  /// restart from a fresh copy of the crash image, checked against the
  /// pre-crash head.
  void EndRound();

  const std::vector<double>& restart_s() const { return restart_s_; }
  const std::vector<double>& commit_p50_us() const { return commit_p50_us_; }
  uint64_t records() const { return records_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  DeltaWriter writer_;
  std::string scratch_;
  size_t num_threads_;
  HeadState head_;
  uint64_t records_ = 0;
  std::vector<double> restart_s_;
  std::vector<double> commit_p50_us_;  // Per round.
  size_t round_first_insert_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// The storage half of a read-only workload: a durable twin of its
/// federation (OpenDurable on `dir`/durable, fsync on), a plain twin for the
/// traced run's maintainer timings, and the StorageBench over them, with a
/// crash image of `replay_pairs` pairs.
dynview::Status PrepareStorage(const StockData& data, const FederationSpec& spec,
                               const std::string& dir, bool trace,
                               int replay_pairs,
                               std::optional<Federation>* durable,
                               std::optional<Federation>* delta_twin,
                               std::optional<StorageBench>* storage);

/// The metrics every workload reports at the end of a run, and its storage
/// operations in `result`'s counts. Untraced: the read metrics of
/// `untraced`, setup_s, peak_rss_mb, commit_p50_ms, write_amp and
/// recovery_s. Traced (after the caller's ReportLayers): the schemasql and
/// storage layers, trace.overhead_p50_ms, and the spans written to
/// Options::trace_file.
void ReportRun(const Options& opt, const RoundSeries& untraced,
               const RoundSeries& traced, const std::vector<double>& setup_s,
               const StorageBench& storage, const Tracer& tracer,
               RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_PERSIST_H_
