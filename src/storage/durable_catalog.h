#ifndef DYNVIEW_STORAGE_DURABLE_CATALOG_H_
#define DYNVIEW_STORAGE_DURABLE_CATALOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "observe/metrics.h"
#include "relational/catalog.h"
#include "storage/wal.h"

namespace dynview {

/// What a recovery pass observed. `warnings` are human-readable and meant
/// to surface on the first answers after a restart (AnswerResult.warnings).
struct RecoveryReport {
  bool recovered_snapshot = false;  // A snapshot file was loaded.
  uint64_t snapshot_version = 0;    // Version of that snapshot (0 if none).
  uint64_t head_version = 0;        // Catalog head after replay.
  uint64_t replayed_records = 0;    // WAL records applied (commits + blobs).
  uint64_t skipped_records = 0;     // WAL records the snapshot already had.
  bool torn_tail = false;           // The WAL ended in a partial record.
  uint64_t torn_bytes = 0;          // Bytes truncated off the torn tail.
  std::vector<std::string> warnings;
};

/// Integration points for layers that keep derived state beside the
/// catalog (view registrations, index payloads). All optional.
struct DurableHooks {
  /// Replays one opaque blob (from a snapshot "extra" or a WAL blob
  /// record), in original append order. An error aborts recovery.
  std::function<Status(const std::string& kind, const std::string& payload)>
      blob_replay;
  /// Observes each replayed catalog commit just before it is applied, so
  /// the head is the commit's base, as in a live commit's before_publish —
  /// the fence restoration hook (tag is the one given to Catalog::Mutate).
  std::function<void(uint64_t version, const std::string& tag)> commit_replay;
  /// Produces the blobs a checkpoint must persist so the WAL can truncate.
  /// Called with the writer paused.
  std::function<std::vector<std::pair<std::string, std::string>>()>
      blob_provider;
};

/// Binds a Catalog to a directory: recovers on Open, then records every
/// commit in the WAL (as the catalog's commit sink — the WAL fsync is the
/// commit point) and checkpoints on demand by writing a snapshot and
/// truncating the log.
///
/// Directory layout: `snapshot-<version>.dvsnap` files plus `wal.log`.
/// Concurrency: OnCommit runs under the catalog writer mutex; Checkpoint
/// takes the writer pause itself. AppendBlob serializes against Checkpoint
/// (ckpt_mu_) so a blob is never stamped against a version the snapshot
/// already covered but written after the truncate.
class DurableCatalog final : public CatalogCommitSink {
 public:
  /// Recovers `catalog` from `dir` (creating it if needed), attaches the
  /// WAL sink, and attempts an initial checkpoint to bound the replayed
  /// log (a failed initial checkpoint is a warning, not an error — the WAL
  /// keeps growing until one succeeds). The catalog must be untouched when
  /// `dir` holds prior state. `report` (optional) receives what recovery
  /// saw; the same data stays readable via report().
  static Result<std::unique_ptr<DurableCatalog>> Open(
      Catalog* catalog, const std::string& dir, DurableHooks hooks,
      RecoveryReport* report = nullptr);

  ~DurableCatalog() override;

  DurableCatalog(const DurableCatalog&) = delete;
  DurableCatalog& operator=(const DurableCatalog&) = delete;

  /// CatalogCommitSink (called by the catalog, writer mutex held).
  Status OnCommit(const CatalogSnapshot& base, const CatalogSnapshot& next,
                  const std::string& tag) override;

  /// Durably logs an opaque integration blob, stamped with the current
  /// catalog version. Replayed at recovery iff newer than the snapshot.
  Status AppendBlob(const std::string& kind, const std::string& payload);

  /// Writes a snapshot of the current head (including blob_provider
  /// extras), fsyncs+renames it into place, then truncates the WAL. Runs
  /// with the catalog writer paused so snapshot and truncate agree.
  Status Checkpoint();

  /// Final checkpoint (best effort) + detach from the catalog. Called by
  /// the destructor if not called explicitly.
  Status Close();

  const RecoveryReport& report() const { return report_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  const std::string& dir() const { return dir_; }

  /// The recovery core (also behind Catalog::Recover): loads the newest
  /// valid snapshot (falling back to older ones with a warning), replays
  /// the WAL truncating a torn tail, and restores the exact head version.
  /// A checksummed WAL record that cannot be read or applied refuses
  /// recovery (ParseError naming its offset; the log is left as it was).
  static Status RecoverInto(Catalog* catalog, const std::string& dir,
                            const DurableHooks& hooks, RecoveryReport* report,
                            MetricsRegistry* metrics);

 private:
  DurableCatalog(Catalog* catalog, std::string dir, DurableHooks hooks)
      : catalog_(catalog), dir_(std::move(dir)), hooks_(std::move(hooks)) {}

  std::string WalPath() const { return dir_ + "/wal.log"; }

  Catalog* catalog_;
  std::string dir_;
  DurableHooks hooks_;
  std::unique_ptr<WalWriter> wal_;
  RecoveryReport report_;
  MetricsRegistry metrics_;
  std::mutex ckpt_mu_;  // Serializes Checkpoint vs AppendBlob and Close.
  bool closed_ = false;
};

}  // namespace dynview

#endif  // DYNVIEW_STORAGE_DURABLE_CATALOG_H_
