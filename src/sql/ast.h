#ifndef DYNVIEW_SQL_AST_H_
#define DYNVIEW_SQL_AST_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "relational/value.h"

namespace dynview {

/// A schema-label position (database name, relation name or attribute name)
/// that is syntactically an identifier. Whether the identifier denotes a
/// *constant label* or a *variable* declared in a FROM clause is decided by
/// the binder (SchemaSQL resolves identifiers against declared variables; the
/// paper's capitals-for-variables convention is presentation only).
struct NameTerm {
  std::string text;
  /// Set by the binder: true if `text` resolves to a declared variable.
  bool is_variable = false;

  NameTerm() = default;
  explicit NameTerm(std::string t) : text(std::move(t)) {}

  bool empty() const { return text.empty(); }
};

/// Expression node kinds.
enum class ExprKind {
  kLiteral,    // 200, 'nyse', DATE '1998-01-02', NULL, TRUE
  kVarRef,     // A declared variable (domain, tuple, or schema variable) or a
               // bare column name resolved later by the binder.
  kColumnRef,  // qualifier.column shorthand, e.g. T.price (column may bind to
               // an attribute variable).
  kCompare,    // = <> < <= > >=
  kArith,      // + - * /
  kLogic,      // AND OR
  kNot,        // NOT e
  kLike,       // e LIKE 'pattern'
  kContains,   // CONTAINS(e, 'text') — substring predicate (Sec. 1.1.2)
  kHasWord,    // HASWORD(e, 'word') — word-membership predicate with exact
               // inverted-index semantics (Fig. 9)
  kIsNull,     // e IS [NOT] NULL
  kAgg,        // COUNT/SUM/AVG/MIN/MAX(expr), COUNT(*)
  kStar,       // * in select list
};

/// Binary operator for kCompare / kArith / kLogic.
enum class BinaryOp {
  kEq, kNotEq, kLess, kLessEq, kGreater, kGreaterEq,
  kAdd, kSub, kMul, kDiv,
  kAnd, kOr,
};

/// Returns the SQL spelling of `op` (e.g. "<=" or "AND").
const char* BinaryOpName(BinaryOp op);

/// Aggregate functions.
enum class AggFunc { kCount, kCountStar, kSum, kAvg, kMin, kMax };

const char* AggFuncName(AggFunc f);

/// True for aggregates that are insensitive to duplicate inputs (MIN/MAX).
/// Sec. 5.2 / Ex. 5.2 of the paper: these may be answered through dynamic
/// attribute views even though such views lose multiplicities.
bool IsDuplicateInsensitive(AggFunc f);

/// Expression tree node. A single struct with kind-dependent fields keeps the
/// rewriting machinery simple (Alg. 5.1 freely rewrites sub-expressions).
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // kLiteral.
  Value literal;

  /// >= 0 marks this literal node as the positional parameter `?` with that
  /// ordinal (0-based, left-to-right parse order). An un-substituted
  /// parameter renders as "?N" and evaluates to an "unbound parameter" error;
  /// SubstituteParameters replaces `literal` and resets this to -1.
  int param_index = -1;

  /// >= 0 marks this literal as the query's marker ?N+1 under
  /// FingerprintMode::kParameterized (ShapeStatement sets it). Clones keep
  /// it, so a rewriting built from the statement knows which of its
  /// literals are the query's; SubstituteLiteralSlots puts another query's
  /// values there. Neither rendering nor evaluation reads it.
  int literal_slot = -1;

  // kVarRef: the referenced name.
  std::string var_name;

  // kColumnRef: qualifier (a tuple variable) and column label (constant
  // attribute name or attribute variable).
  std::string qualifier;
  NameTerm column;

  // kCompare / kArith / kLogic: op with left/right. kNot / kIsNull / kLike /
  // kContains also use left (and right for like/contains pattern).
  BinaryOp op = BinaryOp::kEq;
  std::unique_ptr<Expr> left;
  std::unique_ptr<Expr> right;

  // kIsNull.
  bool negated = false;

  // kAgg.
  AggFunc agg_func = AggFunc::kCount;
  bool agg_distinct = false;  // COUNT(DISTINCT x) etc.

  Expr() = default;

  // --- Factory helpers -----------------------------------------------------
  static std::unique_ptr<Expr> MakeLiteral(Value v);
  static std::unique_ptr<Expr> MakeVarRef(std::string name);
  static std::unique_ptr<Expr> MakeColumnRef(std::string qualifier,
                                             NameTerm column);
  static std::unique_ptr<Expr> MakeBinary(ExprKind kind, BinaryOp op,
                                          std::unique_ptr<Expr> l,
                                          std::unique_ptr<Expr> r);
  static std::unique_ptr<Expr> MakeCompare(BinaryOp op, std::unique_ptr<Expr> l,
                                           std::unique_ptr<Expr> r);
  static std::unique_ptr<Expr> MakeNot(std::unique_ptr<Expr> e);
  static std::unique_ptr<Expr> MakeIsNull(std::unique_ptr<Expr> e, bool negated);
  static std::unique_ptr<Expr> MakeAgg(AggFunc f, std::unique_ptr<Expr> arg,
                                       bool distinct);
  static std::unique_ptr<Expr> MakeStar();

  /// Deep copy.
  std::unique_ptr<Expr> Clone() const;

  /// SchemaSQL rendering.
  std::string ToString() const;

  /// True if this expression (sub)tree contains an aggregate call.
  bool ContainsAggregate() const;

  /// Collects the names of all kVarRef nodes into `out` (pre-order).
  void CollectVarRefs(std::vector<std::string>* out) const;
};

/// The kind of a FROM-clause item. The first three are SchemaSQL schema
/// variable declarations; the last two are standard SQL extended with the
/// paper's explicit domain-variable notation.
enum class FromItemKind {
  kDatabaseVar,   // -> D
  kRelationVar,   // db -> R           (db constant or variable)
  kAttributeVar,  // db::rel -> A      (db/rel constant or variable)
  kTupleVar,      // [db::]rel T       (rel constant or variable)
  kDomainVar,     // T.attr X          (attr constant or attribute variable)
};

/// One FROM-clause item; field usage depends on `kind` (see FromItemKind).
struct FromItem {
  FromItemKind kind = FromItemKind::kTupleVar;
  NameTerm db;        // kRelationVar, kAttributeVar, kTupleVar (optional).
  NameTerm rel;       // kAttributeVar, kTupleVar.
  NameTerm attr;      // kDomainVar.
  std::string tuple;  // kDomainVar: the tuple variable being projected.
  std::string var;    // The declared variable name (all kinds).

  FromItem Clone() const { return *this; }
  std::string ToString() const;
};

/// A SELECT-list entry: expression plus optional alias.
struct SelectItem {
  std::unique_ptr<Expr> expr;
  std::string alias;

  SelectItem() = default;
  SelectItem(std::unique_ptr<Expr> e, std::string a)
      : expr(std::move(e)), alias(std::move(a)) {}

  SelectItem Clone() const;
};

/// ORDER BY entry.
struct OrderItem {
  std::unique_ptr<Expr> expr;
  bool descending = false;

  OrderItem Clone() const;
};

/// A (possibly higher-order) SELECT statement. UNION chains hang off
/// `union_next`.
struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> select_list;
  std::vector<FromItem> from_items;
  std::unique_ptr<Expr> where;        // May be null.
  std::vector<std::unique_ptr<Expr>> group_by;
  std::unique_ptr<Expr> having;       // May be null.
  std::vector<OrderItem> order_by;
  /// Row cap applied after DISTINCT/ORDER BY; negative means no limit.
  /// Only valid on non-UNION statements.
  int64_t limit = -1;
  std::unique_ptr<SelectStmt> union_next;  // May be null.
  bool union_all = false;

  std::unique_ptr<SelectStmt> Clone() const;
  std::string ToString() const;

  /// True if any FROM item declares a schema variable (database, relation or
  /// attribute variable) — i.e. the query is higher order.
  bool IsHigherOrder() const;
};

/// Splits a WHERE tree into its AND-ed conjuncts, left to right.
void CollectConjuncts(const Expr* e, std::vector<const Expr*>* out);

/// AND-chains `conds` left-deep; null when empty.
std::unique_ptr<Expr> AndChain(std::vector<std::unique_ptr<Expr>> conds);

/// Number of positional parameters a statement declares: one plus the
/// largest Expr::param_index found anywhere in the statement (all UNION
/// branches), 0 when parameter-free.
int CountParameters(const SelectStmt& stmt);

/// Replaces every positional parameter `?k` in `stmt` (all UNION branches)
/// by `params[k]` and clears the param markers. Errors when a parameter
/// ordinal has no corresponding value.
Status SubstituteParameters(SelectStmt* stmt, const std::vector<Value>& params);

/// Replaces the value of every literal with a literal_slot below
/// `values.size()` by `values[literal_slot]`.
void SubstituteLiteralSlots(Expr* e, const std::vector<Value>& values);
/// The same over every expression of `stmt` (all UNION branches).
void SubstituteLiteralSlots(SelectStmt* stmt, const std::vector<Value>& values);

/// Calls `fn` on every expression node of `stmt`, pre-order, in render
/// order: select list, WHERE, GROUP BY, HAVING, ORDER BY, then the next
/// UNION branch.
void ForEachExpr(SelectStmt* stmt, const std::function<void(Expr*)>& fn);

/// CREATE VIEW with a possibly data-dependent output schema:
///   create view s2::C(date, price) as select ...      (C is a variable)
///   create view hotelpricing(hid, R) as select ...    (R is a variable)
/// Any header label that matches a variable of the defining query is bound to
/// it by the binder; Def. 3.1 classification is computed from the result.
struct CreateViewStmt {
  NameTerm db;                   // Optional (empty for single-db views).
  NameTerm name;                 // View (relation) name.
  std::vector<NameTerm> attrs;   // Output attribute labels.
  std::unique_ptr<SelectStmt> query;

  std::unique_ptr<CreateViewStmt> Clone() const;
  std::string ToString() const;
};

/// Index construction method (Figs. 4, 8 and 9 of the paper).
enum class IndexMethod { kBtree, kInverted };

/// CREATE INDEX <name> AS btree|inverted BY GIVEN <exprs> SELECT ... — an
/// index whose contents are described by a (possibly higher-order) view, per
/// the paper's physical-data-independence application (Sec. 1.1.3).
struct CreateIndexStmt {
  std::string name;
  IndexMethod method = IndexMethod::kBtree;
  std::vector<std::unique_ptr<Expr>> given;
  std::unique_ptr<SelectStmt> query;

  std::unique_ptr<CreateIndexStmt> Clone() const;
  std::string ToString() const;
};

/// Any parsed statement (exactly one member is non-null).
struct Statement {
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<CreateViewStmt> create_view;
  std::unique_ptr<CreateIndexStmt> create_index;
};

}  // namespace dynview

#endif  // DYNVIEW_SQL_AST_H_
