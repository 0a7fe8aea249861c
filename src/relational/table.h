#ifndef DYNVIEW_RELATIONAL_TABLE_H_
#define DYNVIEW_RELATIONAL_TABLE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace dynview {

/// A row is a vector of values positionally aligned with a schema.
using Row = std::vector<Value>;

/// An in-memory relation with *bag* (multiset) semantics — duplicates are
/// retained, matching the paper's Sec. 4/5 distinction between set and
/// multiset usability of views. Set semantics is obtained explicitly via
/// `Distinct()`.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  Schema* mutable_schema() { return &schema_; }

  size_t num_rows() const { return rows_.size(); }
  const std::vector<Row>& rows() const { return rows_; }
  const Row& row(size_t i) const { return rows_[i]; }

  /// Appends `row`; fails on arity mismatch.
  Status AppendRow(Row row);

  /// Appends without checking (hot path for operators that construct rows of
  /// the right arity by construction).
  void AppendRowUnchecked(Row row) { rows_.push_back(std::move(row)); }

  /// Moves every row of `other` onto the end of this table, leaving `other`
  /// empty; fails on arity mismatch. This is the zero-copy bag-union
  /// accumulator: unioning N grounding results is O(total rows) instead of
  /// the O(N·total) of repeatedly copying the accumulator through UnionAll.
  /// This table's schema wins (as in UnionAll).
  Status AppendTable(Table&& other);

  /// Replaces the `removed` rows starting at row `at` by `rows`, in place.
  /// Fails (changing nothing) when the range is out of bounds or a row's
  /// arity does not match the schema.
  Status Splice(size_t at, size_t removed, std::vector<Row> rows);

  /// Drops every row past the first `n`, in place (LIMIT).
  void Truncate(size_t n) {
    if (n < rows_.size()) rows_.resize(n);
  }

  void Reserve(size_t n) { rows_.reserve(n); }
  void Clear() { rows_.clear(); }

  /// Returns a copy with duplicate rows removed (set semantics).
  Table Distinct() const;

  /// Sorts rows by total order over all columns (deterministic output for
  /// printing and comparison).
  void SortRows();

  /// Multiset equality: same schema arity and same bag of rows.
  bool BagEquals(const Table& other) const;

  /// Set equality: equal after duplicate elimination.
  bool SetEquals(const Table& other) const;

  /// ASCII rendering with a header, for examples and EXPERIMENTS.md output.
  /// `max_rows` truncates long tables (0 = no limit).
  std::string ToString(size_t max_rows = 0) const;

 private:
  Schema schema_;
  std::vector<Row> rows_;
};

/// Hash/equality adaptors over whole rows, consistent with
/// Value::GroupEquals/GroupHash (used by joins, grouping, distinct).
struct RowGroupHash {
  size_t operator()(const Row& r) const;
};
struct RowGroupEq {
  bool operator()(const Row& a, const Row& b) const;
};

/// Lexicographic total-order comparison of rows.
int CompareRows(const Row& a, const Row& b);

}  // namespace dynview

#endif  // DYNVIEW_RELATIONAL_TABLE_H_
