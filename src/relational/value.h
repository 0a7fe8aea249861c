#ifndef DYNVIEW_RELATIONAL_VALUE_H_
#define DYNVIEW_RELATIONAL_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/date.h"
#include "common/result.h"

namespace dynview {

/// Runtime type of a `Value` (and declared type of a column).
enum class TypeKind {
  kNull = 0,  // The type of the SQL NULL literal / an untyped column.
  kBool,
  kInt,
  kDouble,
  kString,
  kDate,
};

/// Returns a display name, e.g. "INT".
const char* TypeKindName(TypeKind kind);

/// Three-valued logic result of a SQL predicate (comparisons against NULL
/// evaluate to Unknown).
enum class TriBool { kFalse = 0, kTrue = 1, kUnknown = 2 };

TriBool TriAnd(TriBool a, TriBool b);
TriBool TriOr(TriBool a, TriBool b);
TriBool TriNot(TriBool a);

/// A single SQL value: NULL, BOOL, INT (64-bit), DOUBLE, STRING or DATE.
///
/// Values are ubiquitous in the engine: rows are vectors of values, and the
/// SchemaSQL machinery also uses values to carry *schema labels* (database,
/// relation and attribute names appear as string values when a higher-order
/// query promotes metadata to data — the heart of the paper).
class Value {
 public:
  /// Constructs SQL NULL.
  Value() : data_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Storage(b)); }
  static Value Int(int64_t i) { return Value(Storage(i)); }
  static Value Double(double d) { return Value(Storage(d)); }
  static Value String(std::string s) { return Value(Storage(std::move(s))); }
  static Value MakeDate(Date d) { return Value(Storage(d)); }

  /// Inline: every comparison and operator asks. Storage lists its
  /// alternatives in TypeKind order.
  TypeKind kind() const {
    const size_t i = data_.index();
    return i <= static_cast<size_t>(TypeKind::kDate) ? static_cast<TypeKind>(i)
                                                     : TypeKind::kNull;
  }
  bool is_null() const { return kind() == TypeKind::kNull; }

  /// Typed accessors; must match `kind()`.
  bool as_bool() const { return std::get<bool>(data_); }
  int64_t as_int() const { return std::get<int64_t>(data_); }
  double as_double() const { return std::get<double>(data_); }
  const std::string& as_string() const { return std::get<std::string>(data_); }
  Date as_date() const { return std::get<Date>(data_); }

  /// True if the value is INT or DOUBLE.
  bool is_numeric() const {
    return kind() == TypeKind::kInt || kind() == TypeKind::kDouble;
  }

  /// Numeric value widened to double (INT or DOUBLE only).
  double NumericAsDouble() const;

  /// SQL comparison with NULL ⇒ Unknown semantics. Comparable pairs: both
  /// numeric (INT/DOUBLE coerce), both STRING, both DATE, both BOOL.
  /// `cmp_out` receives <0, 0 or >0 when the result is not Unknown.
  /// Incomparable non-null kinds produce a TypeError.
  static Result<TriBool> Compare(const Value& a, const Value& b, int* cmp_out);

  /// Equality under SQL semantics (NULL = anything ⇒ Unknown).
  static Result<TriBool> SqlEquals(const Value& a, const Value& b);

  /// Exact structural equality used by GROUP BY / DISTINCT / hash joins:
  /// NULL equals NULL, and INT 1 equals DOUBLE 1.0 (numeric values compare by
  /// numeric value so grouping matches comparison semantics).
  bool GroupEquals(const Value& other) const;

  /// Hash consistent with `GroupEquals`.
  size_t GroupHash() const;

  /// Total order for ORDER BY and deterministic table printing: NULL first,
  /// then by kind, numerics interleaved by value.
  static int TotalOrderCompare(const Value& a, const Value& b);

  /// Renders the value for display ("NULL", 42, 3.5, 'abc', 1998-01-02).
  std::string ToString() const;

  /// Renders without string quotes (used when a value becomes a schema
  /// label, e.g. a company name becoming a relation name).
  std::string ToLabel() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.GroupEquals(b);
  }

 private:
  using Storage =
      std::variant<std::monostate, bool, int64_t, double, std::string, Date>;
  explicit Value(Storage s) : data_(std::move(s)) {}

  Storage data_;
};

}  // namespace dynview

#endif  // DYNVIEW_RELATIONAL_VALUE_H_
