#ifndef DYNVIEW_SCHEMASQL_INSTANTIATE_H_
#define DYNVIEW_SCHEMASQL_INSTANTIATE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "observe/metrics.h"
#include "relational/catalog.h"
#include "sql/ast.h"
#include "sql/binder.h"

namespace dynview {

/// One grounding of a higher-order query: the labels chosen for each schema
/// variable, and the resulting first-order query with all schema variables
/// substituted away (declarations removed, label references replaced by
/// constants, value references replaced by string literals).
struct InstantiatedQuery {
  /// Lowercased schema-variable name → chosen label.
  std::map<std::string, std::string> labels;
  std::unique_ptr<SelectStmt> query;
};

/// One (possibly partial) grounding under construction: variable labels plus
/// the database each relation variable ranged over (a tuple reference `R T`
/// must resolve against that database, not the default one).
struct Grounding {
  std::map<std::string, std::string> labels;
  std::map<std::string, std::string> relvar_db;  // lowercased var → db name.
};

/// The groundings of a bound single-branch query's schema variables that
/// survive the feasibility filter (see InstantiateSchemaVars), in
/// enumeration order, with the counts behind `groundings.enumerated` and
/// `groundings.pruned_notfound`.
struct GroundingSet {
  std::vector<Grounding> groundings;
  uint64_t enumerated = 0;
  uint64_t pruned = 0;
};
GroundingSet EnumerateGroundings(const SelectStmt& stmt,
                                 const CatalogReader& catalog,
                                 const std::string& default_db);

/// Grounds the schema variables of a bound single-branch query `stmt`
/// against `catalog`, in FROM-clause declaration order:
///   * a database variable ranges over all database names,
///   * a relation variable over the relations of its (grounded) database,
///   * an attribute variable over the attributes of its (grounded) relation.
/// This is the standard SchemaSQL grounding semantics; evaluating each
/// result and taking the bag union evaluates the higher-order query.
///
/// A grounding whose database/relation does not exist contributes an empty
/// range (not an error), matching "ranges over all X in Y" semantics.
///
/// When `metrics` is non-null, records `groundings.enumerated` (the full
/// cross product of variable ranges, before the feasibility filter) and
/// `groundings.pruned_notfound` (groundings discarded because a
/// variable-derived relation resolved kNotFound) — enumerated minus pruned
/// equals the number of queries returned.
Result<std::vector<InstantiatedQuery>> InstantiateSchemaVars(
    const SelectStmt& stmt, const BoundQuery& bq, const CatalogReader& catalog,
    const std::string& default_db, MetricsRegistry* metrics = nullptr);

/// Substitutes one grounding into a clone of `stmt` (exposed for testing and
/// for the translation machinery): removes schema-variable declarations,
/// replaces grounded label positions with constants, and replaces value
/// references to schema variables with string literals. Select-list items
/// that are bare references gain their name as an alias first, so output
/// column names survive substitution.
std::unique_ptr<SelectStmt> SubstituteLabels(const SelectStmt& stmt,
                                             const BoundQuery& bq,
                                             const Grounding& grounding);

/// The grounding SubstituteLabels applies to one tuple reference, in place:
/// a reference through a relation variable takes that variable's database,
/// and label positions become the chosen labels.
void GroundTupleRef(const Grounding& grounding, FromItem* f);

/// The grounding SubstituteLabels applies to one expression, on a clone:
/// value references to schema variables become string literals and
/// attribute-variable column references name the chosen attribute.
std::unique_ptr<Expr> SubstituteLabels(const Expr& e, const BoundQuery& bq,
                                       const Grounding& grounding);

}  // namespace dynview

#endif  // DYNVIEW_SCHEMASQL_INSTANTIATE_H_
