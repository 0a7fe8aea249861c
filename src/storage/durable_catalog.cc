#include "storage/durable_catalog.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "storage/snapshot.h"

namespace dynview {

namespace {

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Status::Internal("mkdir " + dir + ": " + std::strerror(errno));
}

}  // namespace

Status DurableCatalog::RecoverInto(Catalog* catalog, const std::string& dir,
                                   const DurableHooks& hooks,
                                   RecoveryReport* report,
                                   MetricsRegistry* metrics) {
  RecoveryReport local;
  RecoveryReport& rep = report != nullptr ? *report : local;

  // Newest valid snapshot wins; unreadable ones are skipped with a warning
  // (an interrupted checkpoint must never take old-but-good state down
  // with it).
  SnapshotData snap;
  bool have_snapshot = false;
  for (const auto& [version, name] : ListSnapshotFiles(dir)) {
    Result<SnapshotData> loaded = ReadSnapshotFile(dir + "/" + name);
    if (loaded.ok()) {
      snap = std::move(loaded).value();
      have_snapshot = true;
      break;
    }
    rep.warnings.push_back("recovery: skipping snapshot " + name + ": " +
                           loaded.status().message());
  }

  if (have_snapshot) {
    rep.recovered_snapshot = true;
    rep.snapshot_version = snap.catalog_version;
    DV_RETURN_IF_ERROR(catalog->InstallRecoveredSnapshot(
        snap.catalog_version, std::move(snap.databases)));
    if (hooks.blob_replay) {
      for (const auto& [kind, payload] : snap.extras) {
        DV_RETURN_IF_ERROR(hooks.blob_replay(kind, payload));
      }
    }
  }

  WalReplayStats stats;
  DV_RETURN_IF_ERROR(ReplayWal(
      dir + "/wal.log", rep.snapshot_version,
      [&](WalCommitRecord&& rec) -> Status {
        uint64_t version = rec.version;
        std::string tag = std::move(rec.tag);
        DV_RETURN_IF_ERROR(
            catalog->ApplyRecoveredCommit(version, std::move(rec.changes)));
        if (hooks.commit_replay) hooks.commit_replay(version, tag);
        return Status::OK();
      },
      [&](WalBlobRecord&& rec) -> Status {
        if (!hooks.blob_replay) return Status::OK();
        return hooks.blob_replay(rec.kind, rec.payload);
      },
      &stats));

  rep.replayed_records = stats.commit_records + stats.blob_records;
  rep.skipped_records = stats.skipped_records;
  rep.torn_tail = stats.torn_tail;
  rep.torn_bytes = stats.torn_bytes;
  rep.head_version = catalog->version();
  if (stats.torn_tail) {
    rep.warnings.push_back(
        "recovery: WAL ended in a torn record; truncated " +
        std::to_string(stats.torn_bytes) +
        " trailing byte(s) (an in-flight commit at crash time was never "
        "acknowledged and is discarded)");
  }
  if (metrics != nullptr) {
    metrics->Add(counters::kStorageReplayedRecords, rep.replayed_records);
    if (stats.torn_tail) metrics->Add(counters::kStorageTornTail, 1);
  }
  if (report == nullptr) {
    // Nobody collects the warnings; at least make them visible.
    for (const std::string& w : local.warnings) {
      std::fprintf(stderr, "dynview: %s\n", w.c_str());
    }
  }
  return Status::OK();
}

Status Catalog::Recover(const std::string& dir, RecoveryReport* report) {
  return DurableCatalog::RecoverInto(this, dir, DurableHooks{}, report,
                                     nullptr);
}

Result<std::unique_ptr<DurableCatalog>> DurableCatalog::Open(
    Catalog* catalog, const std::string& dir, DurableHooks hooks,
    RecoveryReport* report) {
  DV_RETURN_IF_ERROR(EnsureDir(dir));
  std::unique_ptr<DurableCatalog> dc(
      new DurableCatalog(catalog, dir, std::move(hooks)));
  DV_RETURN_IF_ERROR(RecoverInto(catalog, dir, dc->hooks_, &dc->report_,
                                 &dc->metrics_));
  DV_ASSIGN_OR_RETURN(dc->wal_, WalWriter::Open(dc->WalPath()));
  catalog->SetCommitSink(dc.get());
  // Bound the replayed log: checkpoint what we just recovered. Failure
  // (e.g. an injected snapshot.write error) leaves the WAL intact and
  // correct, so it downgrades to a warning.
  Status ckpt = dc->Checkpoint();
  if (!ckpt.ok()) {
    dc->report_.warnings.push_back("recovery: initial checkpoint failed (" +
                                   ckpt.message() +
                                   "); WAL will grow until one succeeds");
  }
  if (report != nullptr) *report = dc->report_;
  return dc;
}

DurableCatalog::~DurableCatalog() { (void)Close(); }

Status DurableCatalog::Close() {
  {
    std::lock_guard<std::mutex> lock(ckpt_mu_);
    if (closed_) return Status::OK();
    closed_ = true;
  }
  Status ckpt = Checkpoint();
  catalog_->SetCommitSink(nullptr);
  return ckpt;
}

Status DurableCatalog::OnCommit(const CatalogSnapshot& base,
                                const CatalogSnapshot& next,
                                const std::string& tag) {
  DV_RETURN_IF_ERROR(wal_->OnCommit(base, next, tag));
  metrics_.Add(counters::kStorageWalAppends, 1);
  // Gauge: the writer already accounts cumulative bytes.
  metrics_.Set(counters::kStorageWalBytes, wal_->bytes_written());
  return Status::OK();
}

Status DurableCatalog::AppendBlob(const std::string& kind,
                                  const std::string& payload) {
  // Serialized against Checkpoint: the version stamp and the append are
  // atomic w.r.t. the snapshot+truncate, so a blob is either covered by
  // the snapshot (stamp <= snapshot version) or survives in the WAL.
  // Lock order is ckpt_mu_ -> writer_mu_ (Checkpoint); callers must NOT
  // hold the writer mutex here (never call from inside Catalog::Mutate).
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  DV_RETURN_IF_ERROR(
      wal_->AppendBlob(kind, payload, catalog_->version()));
  metrics_.Add(counters::kStorageWalAppends, 1);
  metrics_.Set(counters::kStorageWalBytes, wal_->bytes_written());
  return Status::OK();
}

Status DurableCatalog::Checkpoint() {
  std::lock_guard<std::mutex> lock(ckpt_mu_);
  return catalog_->WithWriterPaused([&](const CatalogSnapshot& snap)
                                        -> Status {
    SnapshotData data = CaptureSnapshot(snap);
    if (hooks_.blob_provider) data.extras = hooks_.blob_provider();

    const std::string file = SnapshotFileName(snap.version());
    DV_RETURN_IF_ERROR(WriteSnapshotFile(data, dir_ + "/" + file));
    DV_RETURN_IF_ERROR(wal_->Truncate());
    metrics_.Add(counters::kStorageCheckpoints, 1);

    // Prune older snapshots, keeping one predecessor as a fallback against
    // latent corruption of the file we just wrote. Best effort.
    auto files = ListSnapshotFiles(dir_);
    for (size_t i = 0; i < files.size(); ++i) {
      if (files[i].second == file) continue;
      if (i >= 2) (void)::unlink((dir_ + "/" + files[i].second).c_str());
    }
    return Status::OK();
  });
}

}  // namespace dynview
