#ifndef DYNVIEW_RELATIONAL_SCHEMA_H_
#define DYNVIEW_RELATIONAL_SCHEMA_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "relational/value.h"

namespace dynview {

/// A named, typed column of a relation. Column names are the "schema labels"
/// of the paper: attribute-variable queries quantify over them and dynamic
/// views may *create* them from data values.
struct Column {
  std::string name;
  TypeKind type = TypeKind::kNull;  // kNull means "untyped / any".

  Column() = default;
  Column(std::string n, TypeKind t) : name(std::move(n)), type(t) {}

  friend bool operator==(const Column& a, const Column& b) = default;
};

/// Ordered list of columns of a relation.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  /// Convenience: untyped columns from names.
  static Schema FromNames(const std::vector<std::string>& names);

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Case-insensitive lookup; returns -1 if absent.
  int IndexOf(const std::string& name) const;
  bool HasColumn(const std::string& name) const { return IndexOf(name) >= 0; }

  /// Appends a column. Fails if a column of that name (case-insensitively)
  /// already exists.
  Status AddColumn(Column column);

  /// All column names in order.
  std::vector<std::string> ColumnNames() const;

  /// True if both schemas have the same column names (case-insensitive) and
  /// arity, in order.
  bool SameNames(const Schema& other) const;

  /// Same columns in the same order: names (case-sensitive) and types.
  friend bool operator==(const Schema& a, const Schema& b) = default;

  /// "(a INT, b STRING)" display form.
  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

}  // namespace dynview

#endif  // DYNVIEW_RELATIONAL_SCHEMA_H_
