#include "storage/codec.h"

#include <cstring>

namespace dynview {

void ByteWriter::U32(uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xFF);
  b[1] = static_cast<char>((v >> 8) & 0xFF);
  b[2] = static_cast<char>((v >> 16) & 0xFF);
  b[3] = static_cast<char>((v >> 24) & 0xFF);
  buf_.append(b, 4);
}

void ByteWriter::U64(uint64_t v) {
  U32(static_cast<uint32_t>(v & 0xFFFFFFFFu));
  U32(static_cast<uint32_t>(v >> 32));
}

void ByteWriter::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void ByteWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

void ByteWriter::Raw(const void* data, size_t len) {
  buf_.append(static_cast<const char*>(data), len);
}

Status ByteReader::Need(size_t n) {
  if (len_ - pos_ < n) {
    return Status::ParseError("truncated storage payload: need " +
                              std::to_string(n) + " byte(s), have " +
                              std::to_string(len_ - pos_));
  }
  return Status::OK();
}

Status ByteReader::U8(uint8_t* v) {
  DV_RETURN_IF_ERROR(Need(1));
  *v = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status ByteReader::U32(uint32_t* v) {
  DV_RETURN_IF_ERROR(Need(4));
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(data_ + pos_);
  *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
       (static_cast<uint32_t>(p[2]) << 16) |
       (static_cast<uint32_t>(p[3]) << 24);
  pos_ += 4;
  return Status::OK();
}

Status ByteReader::U64(uint64_t* v) {
  uint32_t lo = 0;
  uint32_t hi = 0;
  DV_RETURN_IF_ERROR(U32(&lo));
  DV_RETURN_IF_ERROR(U32(&hi));
  *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return Status::OK();
}

Status ByteReader::I32(int32_t* v) {
  uint32_t u = 0;
  DV_RETURN_IF_ERROR(U32(&u));
  *v = static_cast<int32_t>(u);
  return Status::OK();
}

Status ByteReader::I64(int64_t* v) {
  uint64_t u = 0;
  DV_RETURN_IF_ERROR(U64(&u));
  *v = static_cast<int64_t>(u);
  return Status::OK();
}

Status ByteReader::F64(double* v) {
  uint64_t bits = 0;
  DV_RETURN_IF_ERROR(U64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status ByteReader::Str(std::string* s) {
  uint32_t len = 0;
  DV_RETURN_IF_ERROR(U32(&len));
  DV_RETURN_IF_ERROR(Need(len));
  s->assign(data_ + pos_, len);
  pos_ += len;
  return Status::OK();
}

uint32_t StringDict::Intern(const std::string& s) {
  auto it = ids_.find(s);
  if (it != ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(strings_.size());
  ids_.emplace(s, id);
  strings_.push_back(s);
  return id;
}

void CollectTableStrings(const Table& table, StringDict* dict) {
  for (const Row& r : table.rows()) {
    for (const Value& v : r) {
      if (v.kind() == TypeKind::kString) dict->Intern(v.as_string());
    }
  }
}

void EncodeSchema(const Schema& schema, ByteWriter* w) {
  w->U32(static_cast<uint32_t>(schema.num_columns()));
  for (const Column& c : schema.columns()) {
    w->Str(c.name);
    w->U8(static_cast<uint8_t>(c.type));
  }
}

Result<Schema> DecodeSchema(ByteReader* r) {
  uint32_t n = 0;
  DV_RETURN_IF_ERROR(r->U32(&n));
  if (n > r->remaining() / 5) {  // A column is at least a str and a tag.
    return Status::ParseError("schema claims " + std::to_string(n) +
                              " column(s) in " +
                              std::to_string(r->remaining()) + " byte(s)");
  }
  std::vector<Column> cols;
  cols.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Column c;
    DV_RETURN_IF_ERROR(r->Str(&c.name));
    uint8_t type = 0;
    DV_RETURN_IF_ERROR(r->U8(&type));
    if (type > static_cast<uint8_t>(TypeKind::kDate)) {
      return Status::ParseError("unknown column type tag " +
                                std::to_string(type));
    }
    c.type = static_cast<TypeKind>(type);
    cols.push_back(std::move(c));
  }
  return Schema(std::move(cols));
}

void EncodeCell(const Value& v, StringDict* dict, ByteWriter* w) {
  w->U8(static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case TypeKind::kNull:
      break;
    case TypeKind::kBool:
      w->U8(v.as_bool() ? 1 : 0);
      break;
    case TypeKind::kInt:
      w->I64(v.as_int());
      break;
    case TypeKind::kDouble:
      w->F64(v.as_double());
      break;
    case TypeKind::kString:
      if (dict != nullptr) {
        w->U32(dict->Intern(v.as_string()));
      } else {
        w->Str(v.as_string());
      }
      break;
    case TypeKind::kDate:
      w->I32(v.as_date().days_since_epoch());
      break;
  }
}

Result<Value> DecodeCell(ByteReader* r, const std::vector<std::string>* dict) {
  uint8_t tag = 0;
  DV_RETURN_IF_ERROR(r->U8(&tag));
  switch (static_cast<TypeKind>(tag)) {
    case TypeKind::kNull:
      return Value::Null();
    case TypeKind::kBool: {
      uint8_t b = 0;
      DV_RETURN_IF_ERROR(r->U8(&b));
      return Value::Bool(b != 0);
    }
    case TypeKind::kInt: {
      int64_t i = 0;
      DV_RETURN_IF_ERROR(r->I64(&i));
      return Value::Int(i);
    }
    case TypeKind::kDouble: {
      double d = 0;
      DV_RETURN_IF_ERROR(r->F64(&d));
      return Value::Double(d);
    }
    case TypeKind::kString: {
      if (dict == nullptr) {
        std::string s;
        DV_RETURN_IF_ERROR(r->Str(&s));
        return Value::String(std::move(s));
      }
      uint32_t id = 0;
      DV_RETURN_IF_ERROR(r->U32(&id));
      if (id >= dict->size()) {
        return Status::ParseError("string dictionary id " +
                                  std::to_string(id) + " out of range");
      }
      return Value::String((*dict)[id]);
    }
    case TypeKind::kDate: {
      int32_t days = 0;
      DV_RETURN_IF_ERROR(r->I32(&days));
      return Value::MakeDate(Date(days));
    }
  }
  return Status::ParseError("unknown value tag " + std::to_string(tag));
}

void EncodeTablePayload(const Table& table, StringDict* dict, ByteWriter* w) {
  EncodeSchema(table.schema(), w);
  w->U64(table.num_rows());
  const size_t ncols = table.schema().num_columns();
  for (size_t c = 0; c < ncols; ++c) {
    ByteWriter page;
    for (const Row& row : table.rows()) {
      EncodeCell(row[c], dict, &page);
    }
    w->U32(static_cast<uint32_t>(page.size()));
    w->Raw(page.buffer().data(), page.size());
  }
}

Result<Table> DecodeTablePayload(ByteReader* r,
                                 const std::vector<std::string>* dict) {
  DV_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(r));
  uint64_t nrows = 0;
  DV_RETURN_IF_ERROR(r->U64(&nrows));
  const size_t ncols = schema.num_columns();
  // Every cell takes at least its tag byte: a count the payload cannot hold
  // is corrupt, and must not size an allocation. Rows without columns take
  // no byte at all, so storage holds none (CheckStorable).
  if (ncols == 0 ? nrows > 0 : nrows > r->remaining() / ncols) {
    return Status::ParseError("table payload claims " + std::to_string(nrows) +
                              " row(s) of " + std::to_string(ncols) +
                              " column(s) in " +
                              std::to_string(r->remaining()) + " byte(s)");
  }
  Table table(std::move(schema));
  std::vector<Row> rows(nrows);
  for (Row& row : rows) row.resize(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    uint32_t page_len = 0;
    DV_RETURN_IF_ERROR(r->U32(&page_len));
    (void)page_len;  // Framing only; cells below are bounds-checked anyway.
    for (uint64_t i = 0; i < nrows; ++i) {
      DV_ASSIGN_OR_RETURN(rows[i][c], DecodeCell(r, dict));
    }
  }
  table.Reserve(rows.size());
  for (Row& row : rows) table.AppendRowUnchecked(std::move(row));
  return table;
}

Status CheckStorable(const Table& table, const std::string& what) {
  if (table.schema().num_columns() > 0 || table.num_rows() == 0) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      what + " has no columns but " + std::to_string(table.num_rows()) +
      " row(s); storage cannot hold rows without columns");
}

namespace {

Result<std::vector<std::string>> DecodeDict(ByteReader* r) {
  uint32_t size = 0;
  DV_RETURN_IF_ERROR(r->U32(&size));
  if (size > r->remaining() / 4) {  // Every string has a u32 length.
    return Status::ParseError("string dictionary claims " +
                              std::to_string(size) + " string(s) in " +
                              std::to_string(r->remaining()) + " byte(s)");
  }
  std::vector<std::string> dict(size);
  for (std::string& s : dict) DV_RETURN_IF_ERROR(r->Str(&s));
  return dict;
}

}  // namespace

void EncodeDatabasePayload(const Database& db, ByteWriter* w) {
  w->Str(db.name());
  // Two passes: intern every string first so the dictionary precedes the
  // pages in the payload (a reader decodes strictly forward).
  StringDict dict;
  std::vector<std::string> rel_names = db.TableNames();
  for (const std::string& rel : rel_names) {
    CollectTableStrings(*db.GetTable(rel).value(), &dict);
  }
  ByteWriter tables;
  tables.U32(static_cast<uint32_t>(rel_names.size()));
  for (const std::string& rel : rel_names) {
    tables.Str(rel);
    EncodeTablePayload(*db.GetTable(rel).value(), &dict, &tables);
  }
  w->U32(static_cast<uint32_t>(dict.strings().size()));
  for (const std::string& s : dict.strings()) w->Str(s);
  w->Raw(tables.buffer().data(), tables.size());
}

Result<Database> DecodeDatabasePayload(ByteReader* r) {
  std::string name;
  DV_RETURN_IF_ERROR(r->Str(&name));
  DV_ASSIGN_OR_RETURN(std::vector<std::string> dict, DecodeDict(r));
  uint32_t ntables = 0;
  DV_RETURN_IF_ERROR(r->U32(&ntables));
  Database db(name);
  for (uint32_t i = 0; i < ntables; ++i) {
    std::string rel;
    DV_RETURN_IF_ERROR(r->Str(&rel));
    DV_ASSIGN_OR_RETURN(Table t, DecodeTablePayload(r, &dict));
    db.PutTable(rel, std::move(t));
  }
  return db;
}

void EncodeStandaloneTable(const Table& table, ByteWriter* w) {
  StringDict dict;
  CollectTableStrings(table, &dict);
  w->U32(static_cast<uint32_t>(dict.strings().size()));
  for (const std::string& s : dict.strings()) w->Str(s);
  EncodeTablePayload(table, &dict, w);
}

Result<Table> DecodeStandaloneTable(ByteReader* r) {
  DV_ASSIGN_OR_RETURN(std::vector<std::string> dict, DecodeDict(r));
  return DecodeTablePayload(r, &dict);
}

}  // namespace dynview
