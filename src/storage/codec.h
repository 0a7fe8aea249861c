#ifndef DYNVIEW_STORAGE_CODEC_H_
#define DYNVIEW_STORAGE_CODEC_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "relational/catalog.h"
#include "relational/table.h"

namespace dynview {

/// Little-endian binary encoding primitives for the storage layer (snapshot
/// sections and WAL record payloads). Writers append to an owned buffer;
/// readers are bounds-checked and return ParseError instead of reading past
/// the end — a corrupt or truncated payload must surface as a Status, never
/// as undefined behavior (recovery "truncate, warn, never crash").

class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  /// u32 length + raw bytes.
  void Str(const std::string& s);
  void Raw(const void* data, size_t len);

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  /// Borrowed view; `data` must outlive the reader.
  ByteReader(const char* data, size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const std::string& s) : ByteReader(s.data(), s.size()) {}

  Status U8(uint8_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status I32(int32_t* v);
  Status I64(int64_t* v);
  Status F64(double* v);
  Status Str(std::string* s);

  bool AtEnd() const { return pos_ >= len_; }
  size_t remaining() const { return len_ - pos_; }

 private:
  Status Need(size_t n);

  const char* data_;
  size_t len_;
  size_t pos_ = 0;
};

/// First-occurrence string dictionary: every string value in a section is
/// interned once and row cells reference it by u32 id, so a snapshot of a
/// federation with repeating labels (the common case — schema labels ARE
/// data here) stores each distinct string once per database section.
class StringDict {
 public:
  uint32_t Intern(const std::string& s);
  const std::vector<std::string>& strings() const { return strings_; }

 private:
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<std::string> strings_;
};

/// Interns every string cell of `table` (row-major, column order) so a later
/// EncodeTablePayload resolves each to an existing id.
void CollectTableStrings(const Table& table, StringDict* dict);

/// Cell: u8 TypeKind tag, then the payload (bool u8, int i64, double f64
/// bits, date i32 days). A string is a u32 id interned in `dict`, or written
/// inline (str) when `dict` is null — WAL records carry too few strings for
/// a dictionary to pay. The decoder reads the same form (`dict` null ⇔
/// inline).
void EncodeCell(const Value& v, StringDict* dict, ByteWriter* w);
Result<Value> DecodeCell(ByteReader* r, const std::vector<std::string>* dict);

/// Schema: u32 column count, then per column name + u8 TypeKind.
void EncodeSchema(const Schema& schema, ByteWriter* w);
Result<Schema> DecodeSchema(ByteReader* r);

/// Table payload: schema, u64 row count, then one length-prefixed column
/// page per column. A page holds one cell per row (strings as `dict` ids, or
/// inline when `dict` is null). Column-major pages keep all tags/payloads
/// of one column adjacent.
void EncodeTablePayload(const Table& table, StringDict* dict, ByteWriter* w);
Result<Table> DecodeTablePayload(ByteReader* r,
                                 const std::vector<std::string>* dict);

/// A table without columns stores no byte per row, so nothing in a payload
/// bounds its row count: DecodeTablePayload refuses one that claims rows,
/// and the durable writers (WAL, snapshot) refuse to store one through this
/// check (InvalidArgument naming `what`).
Status CheckStorable(const Table& table, const std::string& what);

/// Database payload: name, u32 dictionary size + strings (interned across
/// every table of the database), u32 table count, then per table the
/// original-case relation name and its table payload.
void EncodeDatabasePayload(const Database& db, ByteWriter* w);
Result<Database> DecodeDatabasePayload(ByteReader* r);

/// Standalone table payload with a private dictionary (used for ViewIndex
/// contents in snapshots and WAL registration records).
void EncodeStandaloneTable(const Table& table, ByteWriter* w);
Result<Table> DecodeStandaloneTable(ByteReader* r);

}  // namespace dynview

#endif  // DYNVIEW_STORAGE_CODEC_H_
