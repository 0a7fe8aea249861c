#ifndef DYNVIEW_CORE_VIEW_DEFINITION_H_
#define DYNVIEW_CORE_VIEW_DEFINITION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/catalog.h"
#include "sql/ast.h"
#include "sql/binder.h"

namespace dynview {

/// A (database, relation) pair identifying a scanned table, with the
/// database already resolved against the relevant default.
struct TableRef {
  std::string db;   // Lowercased.
  std::string rel;  // Lowercased.

  friend bool operator==(const TableRef& a, const TableRef& b) {
    return a.db == b.db && a.rel == b.rel;
  }
  friend auto operator<=>(const TableRef& a, const TableRef& b) = default;

  std::string ToString() const { return db + "::" + rel; }
};

/// A copyable/movable atomic version counter. Used to stamp derived state
/// (materialized views, indexes) with the catalog version it was built from,
/// so readers can detect staleness without locking. Copy/move take a plain
/// load — version cells are only copied while their owner is quiescent.
class VersionCell {
 public:
  VersionCell() = default;
  explicit VersionCell(uint64_t v) : v_(v) {}
  VersionCell(const VersionCell& o) : v_(o.load()) {}
  VersionCell(VersionCell&& o) noexcept : v_(o.load()) {}
  VersionCell& operator=(const VersionCell& o) {
    store(o.load());
    return *this;
  }
  VersionCell& operator=(VersionCell&& o) noexcept {
    store(o.load());
    return *this;
  }

  uint64_t load() const { return v_.load(std::memory_order_acquire); }
  void store(uint64_t v) { v_.store(v, std::memory_order_release); }

  /// Monotonic bump: keeps the maximum of the current and new value, so
  /// concurrent maintainer commits can't move a fence backwards.
  void Advance(uint64_t v) {
    uint64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_release,
                                     std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<uint64_t> v_{0};
};

/// The Sec. 5 notation for a view V, computed from a bound and normalized
/// CREATE VIEW statement:
///
///   Db(V), Rel(V)       — database/relation label terms (constant or
///                         variable),
///   Att(V)              — output attribute label terms,
///   Dom(A)              — for each output attribute position, the body
///                         variable providing its values,
///   Sel(V)              — body variables in the select clause,
///   view variables      — the variables among Db/Rel/Att,
///   Out(V)              — view variables ∪ Sel(V),
///   Tables(V), Conds(V) — scanned tables and WHERE conjuncts.
///
/// For dynamic views (Def. 3.1) the body is first order, so all view
/// variables are domain variables of the body.
class ViewDefinition {
 public:
  /// Builds from `stmt` (takes ownership of a clone). The body is bound and
  /// normalized to explicit-variable form against `catalog`/`default_db`
  /// (the integration schema the view is defined over). Fails when the body
  /// is not expressible in the Sec. 5 fragment (each select item must be a
  /// single variable after normalization; no UNION).
  static Result<ViewDefinition> Create(const CreateViewStmt& stmt,
                                       const CatalogReader& catalog,
                                       const std::string& default_db);

  /// Parses then builds (convenience).
  static Result<ViewDefinition> FromSql(const std::string& create_view_sql,
                                        const CatalogReader& catalog,
                                        const std::string& default_db);

  const CreateViewStmt& stmt() const { return *stmt_; }
  const SelectStmt& body() const { return *stmt_->query; }
  const BoundQuery& bound_body() const { return bound_.body; }
  ViewClass view_class() const { return bound_.view_class; }

  /// Db(V) / Rel(V) / Att(V).
  const NameTerm& db_term() const { return stmt_->db; }
  const NameTerm& rel_term() const { return stmt_->name; }
  const std::vector<NameTerm>& att_terms() const { return stmt_->attrs; }

  /// "db::rel" (or bare "rel"), as warnings, plans and EXPLAIN name it.
  std::string DisplayName() const {
    return (db_term().empty() ? "" : db_term().text + "::") + rel_term().text;
  }

  /// Dom(att position i): body variable supplying values for that column.
  const std::string& dom_of(size_t i) const { return dom_[i]; }

  /// Sel(V): body variables appearing in the select clause, positionally.
  const std::vector<std::string>& sel() const { return dom_; }

  /// Variables among Db/Rel/Att (lowercased names).
  const std::vector<std::string>& view_variables() const {
    return view_variables_;
  }

  /// Out(V) = view variables ∪ Sel(V) (lowercased names, deduplicated).
  const std::vector<std::string>& out() const { return out_; }

  /// True if `var_name` ∈ Out(V).
  bool IsOutput(const std::string& var_name) const;

  /// True if any Att(V) position is a variable (the multiplicity-losing
  /// case of Sec. 4.3 / Thm. 5.4).
  bool HasAttributeVariables() const;

  /// Tables(V): scanned tables in tuple-variable declaration order.
  const std::vector<TableRef>& tables() const { return tables_; }

  /// Tuple-variable names aligned with tables().
  const std::vector<std::string>& tuple_vars() const { return tuple_vars_; }

  /// Conds(V): WHERE conjuncts of the body (borrowed pointers).
  const std::vector<const Expr*>& conds() const { return conds_; }

  /// The attribute of the view's defining relation a body domain variable
  /// ranges over: var (lowercased) → (tuple var, attribute term).
  struct DomainDecl {
    std::string tuple_var;
    NameTerm attr;
  };
  const DomainDecl* FindDomainDecl(const std::string& var_name) const;

  /// Whether the view aggregates (GROUP BY / aggregate select items) —
  /// routes usability through the Sec. 5.2 machinery.
  bool IsAggregateView() const;

  /// Stale fencing for *derived* state. A fenced view carries the catalog
  /// version its materialization (or index) was built from; it is stale —
  /// and must not serve answers — once any database in Tables(V) has
  /// committed past that version (CatalogSnapshot::DatabaseVersion). Views
  /// that are pure definitions (never materialized) stay unfenced: they are
  /// recomputed per query and can't be stale.
  bool fenced() const { return fenced_; }
  void set_fenced(bool fenced) { fenced_ = fenced; }
  uint64_t materialized_version() const { return materialized_version_.load(); }
  void AdvanceMaterializedVersion(uint64_t v) {
    materialized_version_.Advance(v);
  }

  /// The (db, rel) pairs the view's materialization installed, recorded by
  /// the registration / re-materialization paths. The fence checks these
  /// databases too: a DDL that drops or renames a materialization table
  /// bumps its database's version past the build version, so the view
  /// degrades to a deterministic stale warning instead of executing a
  /// rewriting over vanished (or silently wrong) tables.
  const std::vector<TableRef>& materialization() const {
    return materialization_;
  }
  void set_materialization(std::vector<TableRef> refs) {
    materialization_ = std::move(refs);
  }

  /// True iff the view is fenced and some database it depends on — a body
  /// table's database or a materialization target database — has a
  /// last-modified version in `snapshot` newer than the materialization
  /// (or no longer exists).
  bool IsStaleAgainst(const CatalogSnapshot& snapshot) const;

  ViewDefinition(ViewDefinition&&) = default;
  ViewDefinition& operator=(ViewDefinition&&) = default;

 private:
  ViewDefinition() = default;

  std::unique_ptr<CreateViewStmt> stmt_;
  BoundView bound_;
  std::vector<std::string> dom_;             // Positionally: Dom(att i).
  std::vector<std::string> view_variables_;  // Lowercased.
  std::vector<std::string> out_;             // Lowercased.
  std::vector<TableRef> tables_;
  std::vector<std::string> tuple_vars_;
  std::vector<const Expr*> conds_;
  std::map<std::string, DomainDecl> domain_decls_;  // Lowercased var name.
  std::vector<TableRef> materialization_;           // Lowercased.
  bool fenced_ = false;
  VersionCell materialized_version_;
};

}  // namespace dynview

#endif  // DYNVIEW_CORE_VIEW_DEFINITION_H_
