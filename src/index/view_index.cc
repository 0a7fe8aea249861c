#include "index/view_index.h"

#include <algorithm>

#include "common/str_util.h"
#include "sql/parser.h"

namespace dynview {

std::optional<IndexAccessPath> DeriveAccessPath(const CreateIndexStmt& stmt,
                                                const std::string& default_db) {
  if (stmt.query == nullptr || stmt.given.size() != 1 ||
      stmt.given[0]->kind != ExprKind::kColumnRef) {
    return std::nullopt;
  }
  const SelectStmt& body = *stmt.query;
  const FromItem* scan = nullptr;
  for (const FromItem& f : body.from_items) {
    if (f.kind != FromItemKind::kTupleVar) continue;
    if (scan != nullptr) return std::nullopt;  // More than one table.
    scan = &f;
  }
  if (scan == nullptr || scan->rel.is_variable || scan->db.is_variable) {
    return std::nullopt;
  }
  IndexAccessPath path;
  path.source = TableRef{ToLower(scan->db.empty() ? default_db : scan->db.text),
                         ToLower(scan->rel.text)};
  path.key_attr = ToLower(stmt.given[0]->column.text);
  for (const SelectItem& item : body.select_list) {
    if (item.expr->kind != ExprKind::kColumnRef ||
        item.expr->column.is_variable) {
      return std::nullopt;
    }
    path.payload_attrs.push_back(ToLower(item.expr->column.text));
  }
  return path;
}

Result<ViewIndex> ViewIndex::BuildSql(const std::string& create_index_sql,
                                      QueryEngine* engine) {
  DV_ASSIGN_OR_RETURN(std::unique_ptr<CreateIndexStmt> stmt,
                      Parser::ParseCreateIndex(create_index_sql));
  return Build(*stmt, engine);
}

Result<ViewIndex> ViewIndex::Build(const CreateIndexStmt& stmt,
                                   QueryEngine* engine) {
  if (stmt.given.size() != 1) {
    return Status::Unsupported("exactly one GIVEN key expression is supported");
  }
  ViewIndex index;
  index.name_ = stmt.name;
  index.method_ = stmt.method;
  index.definition_ = stmt.ToString();
  index.access_path_ = DeriveAccessPath(stmt, engine->default_db());
  // Captured before evaluating: a racing commit can only make the index
  // look conservatively stale, never newer than the data it indexed.
  index.build_version_ = engine->catalog().version();

  // Evaluate the defining query with the key expression prepended, so the
  // key is column 0 of the materialized contents.
  std::unique_ptr<CreateIndexStmt> clone = stmt.Clone();
  auto body = std::move(clone->query);
  SelectItem key_item(std::move(clone->given[0]), "xx_key");
  body->select_list.insert(body->select_list.begin(), std::move(key_item));
  DV_ASSIGN_OR_RETURN(Table contents, engine->Execute(body.get()));
  DV_RETURN_IF_ERROR(index.Load(std::move(contents)));
  return index;
}

Result<ViewIndex> ViewIndex::Restore(const std::string& name,
                                     IndexMethod method,
                                     const std::string& definition,
                                     const std::string& default_db,
                                     uint64_t build_version, Table contents) {
  if (contents.schema().num_columns() == 0 ||
      contents.schema().columns()[0].name != "xx_key") {
    return Status::InvalidArgument(
        "restored index contents must carry the key as column 0 (xx_key)");
  }
  DV_ASSIGN_OR_RETURN(std::unique_ptr<CreateIndexStmt> stmt,
                      Parser::ParseCreateIndex(definition));
  ViewIndex index;
  index.name_ = name;
  index.method_ = method;
  index.definition_ = definition;
  index.access_path_ = DeriveAccessPath(*stmt, default_db);
  index.build_version_ = build_version;
  DV_RETURN_IF_ERROR(index.Load(std::move(contents)));
  return index;
}

Status ViewIndex::Load(Table contents) {
  contents_ = std::move(contents);
  if (method_ == IndexMethod::kBtree) {
    DV_ASSIGN_OR_RETURN(BTreeIndex bt, BTreeIndex::Build(contents_, "xx_key"));
    btree_ = std::make_unique<BTreeIndex>(std::move(bt));
  } else {
    DV_ASSIGN_OR_RETURN(
        InvertedIndex inv,
        InvertedIndex::BuildKeyed(contents_, "xx_key", "xx_key"));
    inverted_ = std::make_unique<InvertedIndex>(std::move(inv));
  }
  return Status::OK();
}

Table ViewIndex::RowsFor(const std::vector<int64_t>& row_ids) const {
  // Payload schema: contents without the key column.
  std::vector<Column> cols(contents_.schema().columns().begin() + 1,
                           contents_.schema().columns().end());
  Table out{Schema(std::move(cols))};
  out.Reserve(row_ids.size());
  for (int64_t id : row_ids) {
    const Row& r = contents_.row(static_cast<size_t>(id));
    out.AppendRowUnchecked(Row(r.begin() + 1, r.end()));
  }
  return out;
}

Result<Table> ViewIndex::Probe(const Value& key) const {
  if (btree_ == nullptr) {
    return Status::InvalidArgument("Probe on a non-btree index");
  }
  return RowsFor(btree_->Lookup(key));
}

Result<Table> ViewIndex::ProbeRange(const std::optional<Value>& lo,
                                    bool lo_inclusive,
                                    const std::optional<Value>& hi,
                                    bool hi_inclusive) const {
  if (btree_ == nullptr) {
    return Status::InvalidArgument("ProbeRange on a non-btree index");
  }
  return RowsFor(btree_->Range(lo, lo_inclusive, hi, hi_inclusive));
}

Result<std::vector<int64_t>> ViewIndex::KeywordRows(
    const std::string& word) const {
  if (inverted_ == nullptr) {
    return Status::InvalidArgument("ProbeKeyword on a non-inverted index");
  }
  std::vector<int64_t> ids;
  for (const auto& p : inverted_->Lookup(word)) ids.push_back(p.row_id);
  // De-duplicate (a word may occur in several cells of one row... the key is
  // a single column here, but stay defensive).
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

Result<Table> ViewIndex::ProbeKeyword(const std::string& word) const {
  DV_ASSIGN_OR_RETURN(std::vector<int64_t> ids, KeywordRows(word));
  return RowsFor(ids);
}

}  // namespace dynview
