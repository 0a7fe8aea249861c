#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <set>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/str_util.h"
#include "storage/codec.h"

namespace dynview {

namespace {

constexpr uint8_t kRecordFullCommit = 1;  // Previous format; refused.
constexpr uint8_t kRecordBlob = 2;
constexpr uint8_t kRecordCommit = 3;

std::string Errno(const std::string& op, const std::string& path) {
  return op + " " + path + ": " + std::strerror(errno);
}

Status WriteAll(int fd, const char* data, size_t len, const std::string& path) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("write", path));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

std::string FrameRecord(const std::string& payload) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(Crc32(payload.data(), payload.size()));
  w.Raw(payload.data(), payload.size());
  return w.Take();
}

/// Exact value identity: same kind and same payload bits (so -0.0 differs
/// from 0.0 and INT 1 from DOUBLE 1.0, unlike GroupEquals). Rows a splice
/// keeps must re-encode to the very same bytes.
bool SameValue(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case TypeKind::kNull:
      return true;
    case TypeKind::kBool:
      return a.as_bool() == b.as_bool();
    case TypeKind::kInt:
      return a.as_int() == b.as_int();
    case TypeKind::kDouble: {
      double da = a.as_double();
      double db = b.as_double();
      return std::memcmp(&da, &db, sizeof(da)) == 0;
    }
    case TypeKind::kString:
      return a.as_string() == b.as_string();
    case TypeKind::kDate:
      return a.as_date().days_since_epoch() == b.as_date().days_since_epoch();
  }
  return false;
}

bool SameRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameValue(a[i], b[i])) return false;
  }
  return true;
}

/// Appends the op that turns `before` (null: absent) into `after`.
Status EncodeTableChange(const std::string& db, const std::string& rel,
                         const Table* before, const Table& after,
                         ByteWriter* w) {
  const size_t arity = after.schema().num_columns();
  if (before != nullptr && arity > 0 &&
      before->schema() == after.schema()) {
    const std::vector<Row>& old_rows = before->rows();
    const std::vector<Row>& new_rows = after.rows();
    const size_t common = std::min(old_rows.size(), new_rows.size());
    size_t prefix = 0;
    while (prefix < common && SameRow(old_rows[prefix], new_rows[prefix])) {
      ++prefix;
    }
    size_t suffix = 0;
    while (suffix < common - prefix &&
           SameRow(old_rows[old_rows.size() - 1 - suffix],
                   new_rows[new_rows.size() - 1 - suffix])) {
      ++suffix;
    }
    const size_t inserted = new_rows.size() - prefix - suffix;
    // A splice that keeps no row is no smaller than a put.
    if (prefix + suffix > 0 || inserted == 0) {
      w->U8(static_cast<uint8_t>(TableChange::Op::kSplice));
      w->Str(rel);
      w->U64(prefix);
      w->U64(old_rows.size() - prefix - suffix);
      w->U32(static_cast<uint32_t>(arity));
      w->U32(static_cast<uint32_t>(inserted));
      for (size_t i = prefix; i < prefix + inserted; ++i) {
        for (const Value& v : new_rows[i]) EncodeCell(v, nullptr, w);
      }
      return Status::OK();
    }
  }
  DV_RETURN_IF_ERROR(CheckStorable(after, db + "::" + rel));
  w->U8(static_cast<uint8_t>(TableChange::Op::kPut));
  w->Str(rel);
  EncodeTablePayload(after, nullptr, w);
  return Status::OK();
}

/// Appends the table ops that turn `before` (null: nothing) into `after`. A
/// table `after` shares with `before` is untouched and costs nothing.
Status EncodeTableChanges(const Database* before, const Database& after,
                          ByteWriter* w) {
  ByteWriter ops;
  uint32_t count = 0;
  for (const std::string& rel : after.TableNames()) {
    const Table* table = after.GetTable(rel).value();
    const Table* prev = nullptr;
    if (before != nullptr) {
      Result<const Table*> found = before->GetTable(rel);
      if (found.ok()) prev = found.value();
    }
    if (prev == table) continue;
    DV_RETURN_IF_ERROR(
        EncodeTableChange(after.name(), rel, prev, *table, &ops));
    ++count;
  }
  if (before != nullptr) {
    for (const std::string& rel : before->TableNames()) {
      if (after.HasTable(rel)) continue;
      ops.U8(static_cast<uint8_t>(TableChange::Op::kDrop));
      ops.Str(rel);
      ++count;
    }
  }
  w->U32(count);
  w->Raw(ops.buffer().data(), ops.size());
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return Status::Internal(Errno("open", path));
  return std::unique_ptr<WalWriter>(new WalWriter(fd, path));
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::AppendRecord(const std::string& payload,
                               const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_) {
    return Status::Unavailable(
        "WAL " + path_ +
        " is fail-stop after an ambiguous append; recover before writing");
  }
  // Clean abort: checked before any byte reaches the file, so the log is
  // exactly as if this commit never happened.
  DV_RETURN_IF_ERROR(FailPoints::Check("wal.append", detail));

  const std::string frame = FrameRecord(payload);

  int64_t keep = FailPoints::CheckTornWrite("wal.append", detail);
  if (keep >= 0) {
    // Simulated crash mid-append: persist a prefix of the frame, then die.
    size_t partial = std::min(static_cast<size_t>(keep), frame.size());
    Status st = WriteAll(fd_, frame.data(), partial, path_);
    if (st.ok()) ::fsync(fd_);
    broken_ = true;
    return Status::Unavailable("WAL " + path_ + ": torn write injected (" +
                               std::to_string(partial) + " of " +
                               std::to_string(frame.size()) +
                               " bytes persisted)");
  }

  Status st = WriteAll(fd_, frame.data(), frame.size(), path_);
  if (!st.ok()) {
    // The frame may be partially on disk: ambiguous, so fail-stop.
    broken_ = true;
    return st;
  }
  if (::fsync(fd_) != 0) {
    broken_ = true;
    return Status::Internal(Errno("fsync", path_));
  }
  // Crash window under test: the record is durable but the head has not
  // swapped. An injected failure aborts the commit, yet recovery replays
  // the record — callers observing the error must treat the operation as
  // "unknown outcome", exactly like a process kill here.
  Status fsync_fp = FailPoints::Check("wal.fsync", detail);
  if (!fsync_fp.ok()) {
    broken_ = true;
    return fsync_fp;
  }
  ++appends_;
  bytes_ += frame.size();
  return Status::OK();
}

Status WalWriter::OnCommit(const CatalogSnapshot& base,
                           const CatalogSnapshot& next,
                           const std::string& tag) {
  // Every database whose pointer differs between the versions, sorted by
  // key: one created and dropped by the same transaction is in neither.
  std::set<std::string> keys;
  for (const std::string& name : base.DatabaseNames()) {
    keys.insert(ToLower(name));
  }
  for (const std::string& name : next.DatabaseNames()) {
    keys.insert(ToLower(name));
  }
  ByteWriter entries;
  uint32_t count = 0;
  for (const std::string& key : keys) {
    Result<const Database*> before = base.GetDatabase(key);
    Result<const Database*> after = next.GetDatabase(key);
    if (!after.ok()) {
      entries.U8(static_cast<uint8_t>(DatabaseChange::Op::kDrop));
      entries.Str(before.value()->name());
    } else {
      if (before.ok() && before.value() == after.value()) continue;
      // A database whose name changed case was dropped and recreated.
      const Database* from =
          before.ok() && before.value()->name() == after.value()->name()
              ? before.value()
              : nullptr;
      entries.U8(static_cast<uint8_t>(from != nullptr
                                          ? DatabaseChange::Op::kUpdate
                                          : DatabaseChange::Op::kCreate));
      entries.Str(after.value()->name());
      DV_RETURN_IF_ERROR(EncodeTableChanges(from, *after.value(), &entries));
    }
    ++count;
  }
  ByteWriter w;
  w.U8(kRecordCommit);
  w.U64(next.version());
  w.Str(tag);
  w.U32(count);
  w.Raw(entries.buffer().data(), entries.size());
  return AppendRecord(w.buffer(), tag);
}

Status WalWriter::AppendBlob(const std::string& kind,
                             const std::string& payload,
                             uint64_t catalog_version) {
  ByteWriter w;
  w.U8(kRecordBlob);
  w.U64(catalog_version);
  w.Str(kind);
  w.Str(payload);
  return AppendRecord(w.buffer(), kind);
}

Status WalWriter::Truncate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (::ftruncate(fd_, 0) != 0) {
    return Status::Internal(Errno("ftruncate", path_));
  }
  if (::fsync(fd_) != 0) {
    return Status::Internal(Errno("fsync", path_));
  }
  broken_ = false;  // The ambiguous suffix (if any) is gone with the log.
  return Status::OK();
}

bool WalWriter::broken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return broken_;
}

uint64_t WalWriter::appends() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appends_;
}

uint64_t WalWriter::bytes_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

namespace {

Status DecodeTableChange(ByteReader* r, TableChange* change) {
  uint8_t op = 0;
  DV_RETURN_IF_ERROR(r->U8(&op));
  DV_RETURN_IF_ERROR(r->Str(&change->rel));
  change->op = static_cast<TableChange::Op>(op);
  switch (change->op) {
    case TableChange::Op::kDrop:
      return Status::OK();
    case TableChange::Op::kPut: {
      DV_ASSIGN_OR_RETURN(change->table, DecodeTablePayload(r, nullptr));
      return Status::OK();
    }
    case TableChange::Op::kSplice: {
      uint32_t arity = 0;
      uint32_t count = 0;
      DV_RETURN_IF_ERROR(r->U64(&change->at));
      DV_RETURN_IF_ERROR(r->U64(&change->removed));
      DV_RETURN_IF_ERROR(r->U32(&arity));
      DV_RETURN_IF_ERROR(r->U32(&count));
      // Every cell takes at least its tag byte.
      if (arity == 0 || count > r->remaining() / arity) {
        return Status::ParseError(
            "splice of " + change->rel + " claims " + std::to_string(count) +
            " row(s) of arity " + std::to_string(arity) + " in " +
            std::to_string(r->remaining()) + " byte(s)");
      }
      change->inserted.resize(count);
      for (Row& row : change->inserted) {
        row.reserve(arity);
        for (uint32_t c = 0; c < arity; ++c) {
          DV_ASSIGN_OR_RETURN(Value v, DecodeCell(r, nullptr));
          row.push_back(std::move(v));
        }
      }
      return Status::OK();
    }
  }
  return Status::ParseError("unknown table op " + std::to_string(op));
}

Status DecodeCommitPayload(ByteReader* r, WalCommitRecord* rec) {
  DV_RETURN_IF_ERROR(r->U64(&rec->version));
  DV_RETURN_IF_ERROR(r->Str(&rec->tag));
  uint32_t count = 0;
  DV_RETURN_IF_ERROR(r->U32(&count));
  for (uint32_t i = 0; i < count; ++i) {
    DatabaseChange change;
    uint8_t op = 0;
    DV_RETURN_IF_ERROR(r->U8(&op));
    DV_RETURN_IF_ERROR(r->Str(&change.name));
    change.op = static_cast<DatabaseChange::Op>(op);
    if (change.op == DatabaseChange::Op::kCreate ||
        change.op == DatabaseChange::Op::kUpdate) {
      uint32_t tables = 0;
      DV_RETURN_IF_ERROR(r->U32(&tables));
      for (uint32_t t = 0; t < tables; ++t) {
        change.tables.emplace_back();
        DV_RETURN_IF_ERROR(DecodeTableChange(r, &change.tables.back()));
      }
    } else if (change.op != DatabaseChange::Op::kDrop) {
      return Status::ParseError("unknown database op " + std::to_string(op));
    }
    rec->changes.push_back(std::move(change));
  }
  if (!r->AtEnd()) {
    return Status::ParseError(std::to_string(r->remaining()) +
                              " trailing byte(s) after the commit record");
  }
  return Status::OK();
}

}  // namespace

Status ReplayWal(const std::string& path, uint64_t snapshot_version,
                 const std::function<Status(WalCommitRecord&&)>& on_commit,
                 const std::function<Status(WalBlobRecord&&)>& on_blob,
                 WalReplayStats* stats) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      if (stats != nullptr) stats->missing = true;
      return Status::OK();
    }
    return Status::Internal(Errno("open", path));
  }
  std::string log;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Status::Internal(Errno("read", path));
      ::close(fd);
      return st;
    }
    if (n == 0) break;
    log.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  size_t pos = 0;
  bool torn = false;
  while (pos < log.size()) {
    ByteReader frame(log.data() + pos, log.size() - pos);
    uint32_t len = 0;
    uint32_t crc = 0;
    if (!frame.U32(&len).ok() || !frame.U32(&crc).ok() ||
        frame.remaining() < len) {
      torn = true;
      break;
    }
    const char* payload = log.data() + pos + 8;
    if (crc != Crc32(payload, static_cast<size_t>(len))) {
      torn = true;
      break;
    }
    // From here on the frame was written whole: failing to read it is not a
    // crash artifact, so it refuses the replay instead of truncating.
    ByteReader r(payload, len);
    uint8_t type = 0;
    auto refuse = [&](const Status& why) {
      return Status(why.code(), "WAL " + path + " offset " +
                                    std::to_string(pos) + ", record kind " +
                                    std::to_string(type) + ": " +
                                    why.message());
    };
    if (!r.U8(&type).ok()) {
      return refuse(Status::ParseError("empty checksummed record"));
    }
    if (type == kRecordCommit) {
      WalCommitRecord rec;
      Status decoded = DecodeCommitPayload(&r, &rec);
      if (!decoded.ok()) return refuse(decoded);
      if (rec.version <= snapshot_version) {
        if (stats != nullptr) ++stats->skipped_records;
      } else {
        if (stats != nullptr) ++stats->commit_records;
        if (on_commit) {
          Status applied = on_commit(std::move(rec));
          if (!applied.ok()) return refuse(applied);
        }
      }
    } else if (type == kRecordBlob) {
      WalBlobRecord rec;
      Status decoded = r.U64(&rec.version);
      if (decoded.ok()) decoded = r.Str(&rec.kind);
      if (decoded.ok()) decoded = r.Str(&rec.payload);
      if (!decoded.ok()) return refuse(decoded);
      // Blobs use >=, not >: a blob appended right after a checkpoint at
      // version V (no commit in between) is stamped V but is NOT in that
      // snapshot's extras — the checkpoint truncated the WAL before the
      // append (AppendBlob and Checkpoint serialize on ckpt_mu_), so any
      // blob still in the log postdates the snapshot.
      if (rec.version < snapshot_version || !on_blob) {
        if (stats != nullptr) ++stats->skipped_records;
      } else {
        if (stats != nullptr) ++stats->blob_records;
        Status applied = on_blob(std::move(rec));
        if (!applied.ok()) return refuse(applied);
      }
    } else if (type == kRecordFullCommit) {
      return refuse(Status::ParseError(
          "full-database commit record of the previous WAL format; this "
          "version reads only per-table commit records (kind 3) — recover "
          "the directory with the release that wrote it and checkpoint"));
    } else {
      return refuse(Status::ParseError("unknown record kind"));
    }
    pos += 8 + len;
  }

  if (torn) {
    if (stats != nullptr) {
      stats->torn_tail = true;
      stats->torn_bytes = log.size() - pos;
    }
    // Truncate the tail so the next recovery (and any append that follows)
    // sees a log that ends exactly at the last good record.
    if (::truncate(path.c_str(), static_cast<off_t>(pos)) != 0) {
      return Status::Internal(Errno("truncate", path));
    }
  }
  return Status::OK();
}

}  // namespace dynview
