#ifndef DYNVIEW_STORAGE_WAL_H_
#define DYNVIEW_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/catalog.h"

namespace dynview {

/// Write-ahead delta log for the catalog.
///
/// Record framing: u32 payload_len | u32 crc32(payload) | payload, appended
/// back to back. Payloads (storage/codec.h primitives) start with a u8 kind:
///
///   commit (u8 3): u64 catalog_version | str tag | u32 database_count
///     | per database: u8 op | str name
///       op 1 create: (re)create the database empty, then its table ops
///       op 2 drop:   remove it (nothing follows)
///       op 3 update: apply its table ops to the existing database
///       create/update: u32 table_count | per table: u8 op | str rel
///         op 1 drop:   remove the table (nothing follows)
///         op 2 put:    table payload (codec; strings inline)
///         op 3 splice: u64 at | u64 removed | u32 arity | u32 row_count
///                      | row-major cells (codec; strings inline)
///   blob   (u8 2): u64 catalog_version_at_append | str kind | str payload
///
/// A commit record is the delta of one CatalogTxn commit against the
/// version it started from, which is always the version before it: every
/// database whose pointer differs from the base version's (or that only one
/// of them holds) gets an entry, and its catalog version becomes the
/// commit's; every table whose pointer differs gets an op. A splice
/// replaces rows [at, at + removed) with the inserted rows; the writer finds
/// it as the longest common prefix and suffix of the old and new rows under
/// exact value identity (same TypeKind, same payload bits), so an append, a
/// one-row bag-delete and any contiguous edit each cost one splice. A new
/// table, a schema change, a zero-column table, or an edit that keeps no
/// row is a put; a zero-column table that holds rows cannot be stored, and
/// its commit fails (codec CheckStorable). A database whose name changed
/// case is a create. Replay goes through Catalog::ApplyRecoveredCommit,
/// which clones only the tables the record names, and only onto the
/// version just before the record's.
///
/// Blob records carry opaque integration state
/// (view/index registrations) stamped with the catalog version current when
/// appended; replay applies a blob iff its stamp is at least the snapshot
/// version being recovered from (a blob cannot ride the WAL past the
/// checkpoint that would have captured it — Truncate removes it — so a
/// stamp equal to the snapshot version means "appended just after that
/// checkpoint, with no commit in between").
///
/// Torn versus refused: a frame that is short or fails its CRC is a torn
/// tail — the crash artifact of an unacknowledged append — and replay
/// truncates it. A frame whose CRC holds was written whole, so when it
/// cannot be read replay refuses: it returns an error naming the frame's
/// offset and kind and leaves the log byte-identical. That covers an
/// unknown kind, kind 1 (the whole-database commit of the previous
/// format), a payload that fails to decode (ParseError for all three), a
/// commit whose version does not follow the recovered head (a gap: say the
/// newest snapshot was unreadable and recovery fell back to an older one)
/// and a change that does not fit the recovered head.
///
/// Durability contract: every Append fsyncs BEFORE returning OK, and the
/// catalog publishes the new head only after that — the WAL fsync is the
/// commit point. If a record may have reached the disk but the append did
/// not return OK (torn write, failed/injected fsync), the writer turns
/// fail-stop: every later append returns Unavailable until the log is
/// recovered. That keeps the on-disk prefix unambiguous.
///
/// Failpoints (detail = commit tag or blob kind):
///   wal.append — checked before any byte is written: clean abort.
///   wal.append in torn-write(K) mode — persists only the first K bytes of
///     the frame, then fails and goes fail-stop: a simulated crash
///     mid-write. Recovery truncates the torn tail.
///   wal.fsync  — checked after the real fsync: the record IS durable but
///     the commit aborts, simulating a crash between append and head swap.
///     Recovery must include this record.

class WalWriter final : public CatalogCommitSink {
 public:
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path);
  ~WalWriter() override;

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// CatalogCommitSink: appends the commit record of `next` against `base`.
  Status OnCommit(const CatalogSnapshot& base, const CatalogSnapshot& next,
                  const std::string& tag) override;

  Status AppendBlob(const std::string& kind, const std::string& payload,
                    uint64_t catalog_version);

  /// Checkpoint: drops every record (the snapshot now covers them).
  Status Truncate();

  bool broken() const;
  uint64_t appends() const;
  uint64_t bytes_written() const;

 private:
  WalWriter(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  Status AppendRecord(const std::string& payload, const std::string& detail);

  mutable std::mutex mu_;
  int fd_;
  std::string path_;
  bool broken_ = false;
  uint64_t appends_ = 0;
  uint64_t bytes_ = 0;
};

struct WalCommitRecord {
  uint64_t version = 0;
  std::string tag;
  std::vector<DatabaseChange> changes;
};

struct WalBlobRecord {
  uint64_t version = 0;
  std::string kind;
  std::string payload;
};

struct WalReplayStats {
  uint64_t commit_records = 0;   // delivered to on_commit
  uint64_t blob_records = 0;     // delivered to on_blob
  uint64_t skipped_records = 0;  // at or below the snapshot version
  bool torn_tail = false;
  uint64_t torn_bytes = 0;  // bytes truncated off the tail
  bool missing = false;     // no WAL file at all (fresh directory)
};

/// Replays `path` in append order. Records with version <= snapshot_version
/// are counted as skipped (the snapshot already covers them). The first
/// frame that is short or fails its CRC marks a torn tail: the file is
/// truncated back to the last good record and replay stops with OK — a
/// partial tail is an expected crash artifact, never an error. A frame
/// that passes its CRC but cannot be read refuses the replay (see above):
/// ParseError naming the offset and kind, and the file is left untouched.
/// Errors returned by the callbacks abort the replay and propagate, with
/// the offset and kind of the frame prefixed to their message.
Status ReplayWal(const std::string& path, uint64_t snapshot_version,
                 const std::function<Status(WalCommitRecord&&)>& on_commit,
                 const std::function<Status(WalBlobRecord&&)>& on_blob,
                 WalReplayStats* stats);

}  // namespace dynview

#endif  // DYNVIEW_STORAGE_WAL_H_
