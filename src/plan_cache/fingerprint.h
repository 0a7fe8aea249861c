#ifndef DYNVIEW_PLAN_CACHE_FINGERPRINT_H_
#define DYNVIEW_PLAN_CACHE_FINGERPRINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/value.h"
#include "sql/ast.h"

namespace dynview {

/// How literals participate in the fingerprint.
///
/// kExact keeps them: two queries share a fingerprint only when they are the
/// same query modulo whitespace and identifier/keyword case. The plan cache's
/// exact tier keys on it: an exact entry carries an executable plan built
/// for its literal values.
///
/// kParameterized replaces every literal by a positional `?N` marker and
/// collects the stripped values — the *shape* identity of prepared-query
/// templates and of the plan cache's shape tier. A shape entry reuses one
/// query's Alg. 5.1 rewriting for another binding of the same shape: the
/// probe reads literal values only through ConditionAnalyzer answers, so
/// when every answer it recorded (its LiteralGuard) comes out the same over
/// the new values, a probe of the new query would take the same path and
/// yield the same rewriting with the new values in the literals' places.
enum class FingerprintMode { kExact, kParameterized };

/// A normalized query identity: a canonical rendering (AST-derived, so
/// whitespace-insensitive; lowercased outside string literals, so case-
/// insensitive without touching data values) plus its FNV-1a 64-bit hash.
struct QueryFingerprint {
  uint64_t hash = 0;
  std::string normalized;
  /// kParameterized only: the stripped literal values in marker order.
  std::vector<Value> literals;

  /// 16 lowercase hex digits of `hash` — the compact form shown in EXPLAIN,
  /// AnswerResult and dynview-lint --show-fingerprint.
  std::string Hex() const;
};

/// Fingerprints a parsed statement (all UNION branches).
QueryFingerprint FingerprintStatement(const SelectStmt& stmt,
                                      FingerprintMode mode);

/// The kParameterized fingerprint of `stmt` plus the clone it rendered,
/// whose literals keep their values and carry their marker ordinals in
/// Expr::literal_slot — `fingerprint.literals[i]` is slot i's value.
/// `tagged` is null when `stmt` holds an unbound `?` parameter.
struct QueryShape {
  QueryFingerprint fingerprint;
  std::unique_ptr<SelectStmt> tagged;
};
QueryShape ShapeStatement(const SelectStmt& stmt);

/// Parses `sql` as a SELECT and fingerprints it.
Result<QueryFingerprint> FingerprintSql(const std::string& sql,
                                        FingerprintMode mode);

/// FNV-1a 64-bit over `s` (exposed for tests and for composing cache keys).
uint64_t Fnv1a64(const std::string& s);

}  // namespace dynview

#endif  // DYNVIEW_PLAN_CACHE_FINGERPRINT_H_
