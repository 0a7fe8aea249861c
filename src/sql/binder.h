#ifndef DYNVIEW_SQL_BINDER_H_
#define DYNVIEW_SQL_BINDER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"

namespace dynview {

/// The five SchemaSQL variable classes (Sec. 3.1 of the paper). Database,
/// relation and attribute variables are collectively *schema variables*.
enum class VarClass { kDatabase, kRelation, kAttribute, kTuple, kDomain };

const char* VarClassName(VarClass cls);

/// True for the three schema-variable classes.
bool IsSchemaVarClass(VarClass cls);

/// A variable declared in a FROM clause, after binding.
struct BoundVariable {
  std::string name;
  VarClass cls = VarClass::kTuple;
  /// Index of the declaring FROM item in SelectStmt::from_items.
  size_t from_index = 0;
};

/// Classification of a CREATE VIEW statement against Def. 3.1:
///  * kFirstOrder  — constant output schema, first-order body (plain SQL).
///  * kDynamic     — data-dependent output schema, body uses only tuple and
///                   domain variables (Def. 3.1; e.g. v4/v5 in Fig. 5).
///  * kHigherOrder — body declares schema variables (e.g. v2/v3 of Fig. 2 or
///                   the aggregate view v6 of Fig. 5); outside the restricted
///                   class the paper's architecture admits.
enum class ViewClass { kFirstOrder, kDynamic, kHigherOrder };

/// Result of binding a SELECT statement: the variable table plus annotations
/// written into the AST (NameTerm::is_variable flags).
struct BoundQuery {
  /// Declared variables keyed by lowercase name.
  std::map<std::string, BoundVariable> variables;

  /// True if any schema variable is declared (query is higher order).
  bool higher_order = false;

  /// Looks up a variable (case-insensitive); nullptr if absent.
  const BoundVariable* Find(const std::string& name) const;
};

/// Result of binding a CREATE VIEW: the body's binding plus the view class
/// and which header labels are variables.
struct BoundView {
  BoundQuery body;
  ViewClass view_class = ViewClass::kFirstOrder;
  /// True per header position (db, name, attrs[i]) if that label is a
  /// variable of the body.
  bool db_is_variable = false;
  bool name_is_variable = false;
  std::vector<bool> attr_is_variable;
};

/// Resolves identifiers in a parsed statement against its FROM-clause
/// variable declarations, in declaration order, mutating NameTerm flags in
/// place. SchemaSQL scoping rule: an identifier in a label position denotes a
/// previously declared variable if one of that name exists, else a constant
/// label.
///
/// The binder is deliberately catalog-free: binding is a purely syntactic
/// analysis (the paper's usability and translation machinery operates on
/// queries without consulting instances). Existence of constant relations is
/// checked at evaluation time.
class Binder {
 public:
  /// Binds `stmt` (all branches of a UNION chain). On success the AST is
  /// annotated and the variable table describes the *first* branch (each
  /// UNION branch has its own scope; tables for later branches can be
  /// obtained by binding them individually).
  static Result<BoundQuery> BindSelect(SelectStmt* stmt);

  /// Binds a single SELECT branch without following its UNION chain. Used by
  /// the engine, which evaluates each branch in its own scope.
  static Result<BoundQuery> BindBranch(SelectStmt* stmt);

  /// Binds a CREATE VIEW: binds the body, then resolves header labels
  /// against the body's variables and classifies per Def. 3.1.
  static Result<BoundView> BindView(CreateViewStmt* stmt);

  /// Binds a CREATE INDEX: binds the body and the GIVEN expressions.
  static Result<BoundQuery> BindIndex(CreateIndexStmt* stmt);
};

}  // namespace dynview

#endif  // DYNVIEW_SQL_BINDER_H_
