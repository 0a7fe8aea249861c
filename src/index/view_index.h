#ifndef DYNVIEW_INDEX_VIEW_INDEX_H_
#define DYNVIEW_INDEX_VIEW_INDEX_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/view_definition.h"
#include "engine/query_engine.h"
#include "index/btree.h"
#include "index/inverted_index.h"
#include "relational/table.h"
#include "sql/ast.h"

namespace dynview {

/// The single-table access path of an index defined as `... by given T.key
/// select T.a1, ..., T.ak from [db::]rel T`: a key lookup on `source`
/// returning the payload attributes. Names are lowercased.
struct IndexAccessPath {
  TableRef source;
  std::string key_attr;
  std::vector<std::string> payload_attrs;
};

/// The access path of `stmt`, or nullopt for any other defining-query shape
/// (such an index is only probed directly). Unqualified relations resolve
/// to `default_db`.
std::optional<IndexAccessPath> DeriveAccessPath(const CreateIndexStmt& stmt,
                                                const std::string& default_db);

/// An index whose contents are described by a (possibly higher-order) view —
/// the paper's Sec. 1.1.3 physical-data-independence mechanism, in the
/// spirit of GMAPs (Tsatalos et al.) extended with dynamic views:
///
///   create index ticketInfr as btree by given T.infr
///     select R, T.tnum, T.lic from -> R, R T            (Fig. 4)
///   create index keywords as inverted by given value
///     select T.hid, T.attribute from hotelwords T       (Fig. 9)
///
/// Because the defining query may quantify over relation names, a single
/// B+-tree can span a data-dependent union of tables — the structure SQL
/// views cannot express (the limitation of [37] the paper lifts).
class ViewIndex {
 public:
  /// Evaluates the defining query against `engine` and builds the physical
  /// structure. The GIVEN expressions are evaluated per result row as the
  /// key; exactly one GIVEN expression is supported.
  static Result<ViewIndex> Build(const CreateIndexStmt& stmt,
                                 QueryEngine* engine);

  /// Parses and builds (convenience).
  static Result<ViewIndex> BuildSql(const std::string& create_index_sql,
                                    QueryEngine* engine);

  /// Reconstructs an index from persisted state (storage recovery): the
  /// materialized `contents` (key prepended as column 0, as Build left
  /// them) plus the recorded `build_version`. The physical structure is
  /// rebuilt from the rows — only the logical payload is stored on disk.
  /// `definition` must re-parse; its access path resolves against
  /// `default_db`.
  static Result<ViewIndex> Restore(const std::string& name,
                                   IndexMethod method,
                                   const std::string& definition,
                                   const std::string& default_db,
                                   uint64_t build_version, Table contents);

  const std::string& name() const { return name_; }
  IndexMethod method() const { return method_; }

  /// The materialized payload rows (the defining query's select list), with
  /// the key prepended as column 0.
  const Table& contents() const { return contents_; }

  /// B+-tree probe: payload rows whose key equals `key`.
  Result<Table> Probe(const Value& key) const;

  /// B+-tree range probe; unset bounds are open.
  Result<Table> ProbeRange(const std::optional<Value>& lo, bool lo_inclusive,
                           const std::optional<Value>& hi,
                           bool hi_inclusive) const;

  /// Inverted probe: payload rows whose key text contains `word`.
  Result<Table> ProbeKeyword(const std::string& word) const;

  /// The positions in contents() of the rows ProbeKeyword returns,
  /// ascending.
  Result<std::vector<int64_t>> KeywordRows(const std::string& word) const;

  /// The SchemaSQL definition text (for catalogs and EXPLAIN output).
  std::string definition() const { return definition_; }

  /// DeriveAccessPath of the definition.
  const std::optional<IndexAccessPath>& access_path() const {
    return access_path_;
  }

  /// The catalog version the defining query was evaluated against, captured
  /// before the build's evaluation — so a commit racing the build can only
  /// make the index look *older* (conservatively stale), never newer than
  /// its data. The optimizer and KeywordSearch fence the index once its
  /// source database has committed past this version.
  uint64_t build_version() const { return build_version_; }

 private:
  ViewIndex() = default;

  /// Installs `contents` (key in column 0) and builds the physical
  /// structure over it.
  Status Load(Table contents);

  Table RowsFor(const std::vector<int64_t>& row_ids) const;

  std::string name_;
  IndexMethod method_ = IndexMethod::kBtree;
  std::string definition_;
  std::optional<IndexAccessPath> access_path_;
  uint64_t build_version_ = 0;
  Table contents_;
  std::unique_ptr<BTreeIndex> btree_;
  std::unique_ptr<InvertedIndex> inverted_;
};

}  // namespace dynview

#endif  // DYNVIEW_INDEX_VIEW_INDEX_H_
