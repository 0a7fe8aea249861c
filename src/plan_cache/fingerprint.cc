#include "plan_cache/fingerprint.h"

#include <cctype>
#include <cstdio>
#include <memory_resource>

#include "sql/parser.h"

namespace dynview {

namespace {

/// Lowercases everything outside single-quoted string literals, so the
/// normalized form is case-insensitive for identifiers and keywords but
/// never rewrites data values ('NYSE' and 'nyse' stay distinct). Scratch
/// runs through a stack-adjacent pmr arena: fingerprinting happens on every
/// uncached Answer, so the normalization pass should not hit the global
/// allocator.
std::string NormalizeCase(const std::string& in) {
  char stack_buf[512];
  std::pmr::monotonic_buffer_resource arena(stack_buf, sizeof(stack_buf));
  std::pmr::string tmp(&arena);
  tmp.reserve(in.size());
  bool in_string = false;
  for (char c : in) {
    if (c == '\'') in_string = !in_string;
    tmp.push_back(in_string
                      ? c
                      : static_cast<char>(
                            std::tolower(static_cast<unsigned char>(c))));
  }
  return std::string(tmp.begin(), tmp.end());
}

}  // namespace

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string QueryFingerprint::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buf);
}

QueryFingerprint FingerprintStatement(const SelectStmt& stmt,
                                      FingerprintMode mode) {
  if (mode == FingerprintMode::kParameterized) {
    return ShapeStatement(stmt).fingerprint;
  }
  QueryFingerprint fp;
  fp.normalized = NormalizeCase(stmt.ToString());
  fp.hash = Fnv1a64(fp.normalized);
  return fp;
}

QueryShape ShapeStatement(const SelectStmt& stmt) {
  // Parameterize a clone: every literal position (including positions
  // already holding a `?` parameter) is renumbered in render order, so
  // equal shapes normalize identically regardless of how their markers
  // were originally numbered.
  QueryShape shape;
  QueryFingerprint& fp = shape.fingerprint;
  shape.tagged = stmt.Clone();
  std::vector<Expr*> literals;
  bool unbound = false;
  ForEachExpr(shape.tagged.get(), [&](Expr* e) {
    if (e->kind != ExprKind::kLiteral) return;
    if (e->param_index < 0) fp.literals.push_back(e->literal);
    unbound = unbound || e->param_index >= 0;
    e->literal_slot = static_cast<int>(literals.size());
    e->param_index = e->literal_slot;
    literals.push_back(e);
  });
  fp.normalized = NormalizeCase(shape.tagged->ToString());
  fp.hash = Fnv1a64(fp.normalized);
  if (unbound) {
    shape.tagged.reset();
  } else {
    for (Expr* e : literals) e->param_index = -1;  // Render values again.
  }
  return shape;
}

Result<QueryFingerprint> FingerprintSql(const std::string& sql,
                                        FingerprintMode mode) {
  DV_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt,
                      Parser::ParseSelect(sql));
  return FingerprintStatement(*stmt, mode);
}

}  // namespace dynview
