#include "relational/table.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>

namespace dynview {

size_t RowGroupHash::operator()(const Row& r) const {
  size_t h = 1469598103934665603ull;
  for (const Value& v : r) {
    h ^= v.GroupHash();
    h *= 1099511628211ull;
  }
  return h;
}

bool RowGroupEq::operator()(const Row& a, const Row& b) const {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].GroupEquals(b[i])) return false;
  }
  return true;
}

int CompareRows(const Row& a, const Row& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = Value::TotalOrderCompare(a[i], b[i]);
    if (c != 0) return c;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

Status Table::AppendRow(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema " +
        std::to_string(schema_.num_columns()));
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

Status Table::Splice(size_t at, size_t removed, std::vector<Row> rows) {
  if (at > rows_.size() || removed > rows_.size() - at) {
    return Status::InvalidArgument(
        "splice of rows [" + std::to_string(at) + ", +" +
        std::to_string(removed) + ") exceeds " +
        std::to_string(rows_.size()) + " row(s)");
  }
  for (const Row& row : rows) {
    if (row.size() != schema_.num_columns()) {
      return Status::InvalidArgument(
          "spliced row arity " + std::to_string(row.size()) +
          " does not match schema " + std::to_string(schema_.num_columns()));
    }
  }
  auto first = rows_.begin() + static_cast<std::ptrdiff_t>(at);
  first = rows_.erase(first, first + static_cast<std::ptrdiff_t>(removed));
  rows_.insert(first, std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
  return Status::OK();
}

Status Table::AppendTable(Table&& other) {
  if (schema_.num_columns() != other.schema_.num_columns()) {
    return Status::InvalidArgument(
        "UNION arity mismatch: " + std::to_string(schema_.num_columns()) +
        " vs " + std::to_string(other.schema_.num_columns()));
  }
  if (rows_.empty()) {
    rows_ = std::move(other.rows_);
  } else {
    // Geometric growth: an exact reserve per call would reallocate on every
    // append, moving the accumulated rows quadratically over a long chain.
    const size_t need = rows_.size() + other.rows_.size();
    if (need > rows_.capacity()) {
      rows_.reserve(std::max(need, 2 * rows_.capacity()));
    }
    for (Row& r : other.rows_) rows_.push_back(std::move(r));
  }
  other.rows_.clear();
  return Status::OK();
}

Table Table::Distinct() const {
  Table out(schema_);
  std::unordered_map<Row, bool, RowGroupHash, RowGroupEq> seen;
  seen.reserve(rows_.size());
  for (const Row& r : rows_) {
    auto [it, inserted] = seen.emplace(r, true);
    if (inserted) out.AppendRowUnchecked(r);
  }
  return out;
}

void Table::SortRows() {
  std::sort(rows_.begin(), rows_.end(),
            [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
}

bool Table::BagEquals(const Table& other) const {
  if (schema_.num_columns() != other.schema_.num_columns()) return false;
  if (rows_.size() != other.rows_.size()) return false;
  std::unordered_map<Row, int64_t, RowGroupHash, RowGroupEq> counts;
  counts.reserve(rows_.size());
  for (const Row& r : rows_) ++counts[r];
  for (const Row& r : other.rows_) {
    auto it = counts.find(r);
    if (it == counts.end() || it->second == 0) return false;
    --it->second;
  }
  return true;
}

bool Table::SetEquals(const Table& other) const {
  if (schema_.num_columns() != other.schema_.num_columns()) return false;
  std::unordered_map<Row, bool, RowGroupHash, RowGroupEq> mine;
  for (const Row& r : rows_) mine.emplace(r, true);
  std::unordered_map<Row, bool, RowGroupHash, RowGroupEq> theirs;
  for (const Row& r : other.rows_) theirs.emplace(r, true);
  if (mine.size() != theirs.size()) return false;
  for (const auto& [r, unused] : mine) {
    if (theirs.find(r) == theirs.end()) return false;
  }
  return true;
}

std::string Table::ToString(size_t max_rows) const {
  // Compute column widths.
  std::vector<std::string> headers = schema_.ColumnNames();
  std::vector<size_t> widths(headers.size());
  for (size_t i = 0; i < headers.size(); ++i) widths[i] = headers[i].size();
  size_t limit = (max_rows == 0) ? rows_.size() : std::min(max_rows, rows_.size());
  std::vector<std::vector<std::string>> cells;
  cells.reserve(limit);
  for (size_t r = 0; r < limit; ++r) {
    std::vector<std::string> line;
    line.reserve(headers.size());
    for (size_t c = 0; c < rows_[r].size(); ++c) {
      line.push_back(rows_[r][c].ToString());
      if (c < widths.size()) widths[c] = std::max(widths[c], line.back().size());
    }
    cells.push_back(std::move(line));
  }
  std::string out;
  auto pad = [](const std::string& s, size_t w) {
    std::string p = s;
    p.resize(w, ' ');
    return p;
  };
  for (size_t i = 0; i < headers.size(); ++i) {
    out += (i ? " | " : "| ") + pad(headers[i], widths[i]);
  }
  out += " |\n";
  for (size_t i = 0; i < headers.size(); ++i) {
    out += (i ? "-+-" : "+-") + std::string(widths[i], '-');
  }
  out += "-+\n";
  for (const auto& line : cells) {
    for (size_t i = 0; i < headers.size(); ++i) {
      out += (i ? " | " : "| ") + pad(i < line.size() ? line[i] : "", widths[i]);
    }
    out += " |\n";
  }
  if (limit < rows_.size()) {
    out += "... (" + std::to_string(rows_.size() - limit) + " more rows)\n";
  }
  return out;
}

}  // namespace dynview
