#include "relational/value.h"

#include <cmath>
#include <cstdio>
#include <functional>

namespace dynview {

const char* TypeKindName(TypeKind kind) {
  switch (kind) {
    case TypeKind::kNull:
      return "NULL";
    case TypeKind::kBool:
      return "BOOL";
    case TypeKind::kInt:
      return "INT";
    case TypeKind::kDouble:
      return "DOUBLE";
    case TypeKind::kString:
      return "STRING";
    case TypeKind::kDate:
      return "DATE";
  }
  return "?";
}

TriBool TriAnd(TriBool a, TriBool b) {
  if (a == TriBool::kFalse || b == TriBool::kFalse) return TriBool::kFalse;
  if (a == TriBool::kTrue && b == TriBool::kTrue) return TriBool::kTrue;
  return TriBool::kUnknown;
}

TriBool TriOr(TriBool a, TriBool b) {
  if (a == TriBool::kTrue || b == TriBool::kTrue) return TriBool::kTrue;
  if (a == TriBool::kFalse && b == TriBool::kFalse) return TriBool::kFalse;
  return TriBool::kUnknown;
}

TriBool TriNot(TriBool a) {
  if (a == TriBool::kTrue) return TriBool::kFalse;
  if (a == TriBool::kFalse) return TriBool::kTrue;
  return TriBool::kUnknown;
}

double Value::NumericAsDouble() const {
  if (kind() == TypeKind::kInt) return static_cast<double>(as_int());
  return as_double();
}

Result<TriBool> Value::Compare(const Value& a, const Value& b, int* cmp_out) {
  if (a.is_null() || b.is_null()) return TriBool::kUnknown;
  if (a.is_numeric() && b.is_numeric()) {
    if (a.kind() == TypeKind::kInt && b.kind() == TypeKind::kInt) {
      int64_t x = a.as_int(), y = b.as_int();
      *cmp_out = (x < y) ? -1 : (x > y) ? 1 : 0;
    } else {
      double x = a.NumericAsDouble(), y = b.NumericAsDouble();
      *cmp_out = (x < y) ? -1 : (x > y) ? 1 : 0;
    }
    return TriBool::kTrue;
  }
  if (a.kind() != b.kind()) {
    return Status::TypeError(std::string("cannot compare ") +
                             TypeKindName(a.kind()) + " with " +
                             TypeKindName(b.kind()));
  }
  switch (a.kind()) {
    case TypeKind::kBool: {
      int x = a.as_bool() ? 1 : 0, y = b.as_bool() ? 1 : 0;
      *cmp_out = x - y;
      return TriBool::kTrue;
    }
    case TypeKind::kString: {
      int c = a.as_string().compare(b.as_string());
      *cmp_out = (c < 0) ? -1 : (c > 0) ? 1 : 0;
      return TriBool::kTrue;
    }
    case TypeKind::kDate: {
      int32_t x = a.as_date().days_since_epoch();
      int32_t y = b.as_date().days_since_epoch();
      *cmp_out = (x < y) ? -1 : (x > y) ? 1 : 0;
      return TriBool::kTrue;
    }
    default:
      return Status::Internal("unreachable comparison");
  }
}

Result<TriBool> Value::SqlEquals(const Value& a, const Value& b) {
  int cmp = 0;
  DV_ASSIGN_OR_RETURN(TriBool known, Compare(a, b, &cmp));
  if (known == TriBool::kUnknown) return TriBool::kUnknown;
  return cmp == 0 ? TriBool::kTrue : TriBool::kFalse;
}

bool Value::GroupEquals(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  if (is_numeric() && other.is_numeric()) {
    return NumericAsDouble() == other.NumericAsDouble();
  }
  if (kind() != other.kind()) return false;
  switch (kind()) {
    case TypeKind::kBool:
      return as_bool() == other.as_bool();
    case TypeKind::kString:
      return as_string() == other.as_string();
    case TypeKind::kDate:
      return as_date() == other.as_date();
    default:
      return false;
  }
}

size_t Value::GroupHash() const {
  switch (kind()) {
    case TypeKind::kNull:
      return 0x9e3779b97f4a7c15ull;
    case TypeKind::kBool:
      return as_bool() ? 0x1234u : 0x4321u;
    case TypeKind::kInt:
      // Hash through double so INT 1 and DOUBLE 1.0 collide, matching
      // GroupEquals.
      return std::hash<double>()(static_cast<double>(as_int()));
    case TypeKind::kDouble:
      return std::hash<double>()(as_double());
    case TypeKind::kString:
      return std::hash<std::string>()(as_string());
    case TypeKind::kDate:
      return std::hash<int32_t>()(as_date().days_since_epoch()) ^ 0xD47Eu;
  }
  return 0;
}

int Value::TotalOrderCompare(const Value& a, const Value& b) {
  auto rank = [](const Value& v) {
    switch (v.kind()) {
      case TypeKind::kNull:
        return 0;
      case TypeKind::kBool:
        return 1;
      case TypeKind::kInt:
      case TypeKind::kDouble:
        return 2;
      case TypeKind::kDate:
        return 3;
      case TypeKind::kString:
        return 4;
    }
    return 5;
  };
  int ra = rank(a), rb = rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  if (a.is_null()) return 0;
  int cmp = 0;
  Result<TriBool> r = Compare(a, b, &cmp);
  if (r.ok() && r.value() == TriBool::kTrue) return cmp;
  return 0;
}

std::string Value::ToString() const {
  switch (kind()) {
    case TypeKind::kNull:
      return "NULL";
    case TypeKind::kBool:
      return as_bool() ? "TRUE" : "FALSE";
    case TypeKind::kInt:
      return std::to_string(as_int());
    case TypeKind::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", as_double());
      return buf;
    }
    case TypeKind::kString: {
      // Double embedded quotes ('' escaping) so the rendering round-trips
      // through the lexer: 'A''B' must re-parse as the value A'B, and two
      // distinct values must never render to the same SQL text.
      std::string quoted;
      quoted.reserve(as_string().size() + 2);
      quoted.push_back('\'');
      for (char c : as_string()) {
        if (c == '\'') quoted.push_back('\'');
        quoted.push_back(c);
      }
      quoted.push_back('\'');
      return quoted;
    }
    case TypeKind::kDate:
      return as_date().ToString();
  }
  return "?";
}

std::string Value::ToLabel() const {
  if (kind() == TypeKind::kString) return as_string();
  if (kind() == TypeKind::kNull) return "NULL";
  return ToString();
}

}  // namespace dynview
