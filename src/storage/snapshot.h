#ifndef DYNVIEW_STORAGE_SNAPSHOT_H_
#define DYNVIEW_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/catalog.h"

namespace dynview {

/// Versioned binary snapshot files for CatalogSnapshot persistence.
///
/// File layout (all integers little-endian):
///
///   header  : magic "DVSN" | u32 format_version (=1) | u64 catalog_version
///             | u32 section_count | u32 crc32(header bytes so far)
///   section : u32 payload_len | u32 crc32(payload) | payload
///   payload : u8 section_type | content
///
/// Section types: 1 = database (name, u64 db_version, string dictionary +
/// per-table column pages — storage/codec.h), 2 = extra (named opaque
/// payload; the integration layer stores view definitions with their
/// `materialized_version`/`fenced` state and ViewIndex payloads with their
/// `build_version` here).
///
/// Every section is individually length-prefixed and CRC-checked, so a
/// corrupt file fails validation with a Status — never undefined behavior —
/// and recovery falls back to the next-older snapshot with a warning.
///
/// Atomicity: WriteSnapshotFile builds the complete image, writes it to
/// `<path>.tmp`, fsyncs, then renames into place (and fsyncs the directory).
/// A crash before the rename leaves only a `.tmp` recovery ignores. The
/// `snapshot.write` failpoint (detail: destination path) fires between the
/// tmp fsync and the rename — exactly the torn-checkpoint window; the
/// `snapshot.load` failpoint (detail: path) makes a file unreadable.

struct SnapshotData {
  uint64_t catalog_version = 0;
  std::vector<RecoveredDatabase> databases;
  /// Opaque named payloads ((kind, payload)), preserved in order.
  std::vector<std::pair<std::string, std::string>> extras;
};

/// The databases and versions of `snap`, without extras. Each database is a
/// copy that shares its tables with `snap`, so capturing copies no rows.
SnapshotData CaptureSnapshot(const CatalogSnapshot& snap);

/// "snapshot-<version, zero-padded to 20 digits>.dvsnap" — lexicographic
/// order equals version order.
std::string SnapshotFileName(uint64_t version);

Status WriteSnapshotFile(const SnapshotData& data, const std::string& path);

Result<SnapshotData> ReadSnapshotFile(const std::string& path);

/// Snapshot files under `dir` as (version, filename), newest first.
/// Unparseable names are ignored; a missing directory yields an empty list.
std::vector<std::pair<uint64_t, std::string>> ListSnapshotFiles(
    const std::string& dir);

/// Serializes the full snapshot image (header + sections) into `out` —
/// exposed so tests can assert byte-identity without touching disk.
void EncodeSnapshotImage(const SnapshotData& data, std::string* out);

}  // namespace dynview

#endif  // DYNVIEW_STORAGE_SNAPSHOT_H_
