#ifndef DYNVIEW_ANALYZE_ANALYZER_H_
#define DYNVIEW_ANALYZE_ANALYZER_H_

#include <memory>
#include <string>
#include <vector>

#include "analyze/diagnostic.h"
#include "core/view_definition.h"
#include "relational/catalog.h"
#include "sql/ast.h"
#include "sql/binder.h"

namespace dynview {

class MetricsRegistry;

/// Options for one analysis run. `multiset` selects the semantics the
/// definition will serve under: the DV003 pivot check and the DV004
/// usability precheck harden from note/warning accordingly. `sources`, when
/// given, enables the DV004 query-side precheck (is any registered source
/// usable for this query shape?).
struct AnalyzeOptions {
  bool multiset = false;
  const std::vector<std::shared_ptr<ViewDefinition>>* sources = nullptr;
};

/// One entry of the check registry: the catalog of analyses the engine runs,
/// with the paper result each one implements. The registry drives the
/// analyzer itself, `dynview_lint --list-checks`, and the docs table.
struct CheckInfo {
  const char* code;
  const char* name;
  const char* anchor;
  Severity severity;  // Default (maximum) severity the check emits.
  const char* summary;
};

/// All registered checks, in code order (DV001..DV007).
const std::vector<CheckInfo>& CheckCatalog();

/// The static diagnostics pass over SchemaSQL view definitions and queries.
/// Analysis is purely static: it reads the bound AST and the catalog
/// *snapshot* (schema + table existence + fence versions) but never
/// evaluates a query. All entry points are deterministic — diagnostics come
/// back sorted (DiagnosticLess) and depend only on (input text, snapshot
/// version, options), never on thread count or timing.
class Analyzer {
 public:
  /// `catalog` is typically a pinned CatalogSnapshot; a live Catalog works
  /// identically for single-threaded callers.
  Analyzer(const CatalogReader* catalog, std::string default_db);

  /// Analyzes a CREATE VIEW statement. Syntax errors surface as DV000,
  /// binder failures as DV001 — the call itself never fails.
  std::vector<Diagnostic> AnalyzeCreateView(const std::string& sql,
                                            const AnalyzeOptions& opts = {}) const;

  /// Analyzes a SELECT statement (every UNION branch individually).
  std::vector<Diagnostic> AnalyzeSelect(const std::string& sql,
                                        const AnalyzeOptions& opts = {}) const;

  /// Analyzes a CREATE INDEX statement (front-end checks only: DV000/DV001
  /// over the body and GIVEN expressions).
  std::vector<Diagnostic> AnalyzeCreateIndex(const std::string& sql,
                                             const AnalyzeOptions& opts = {}) const;

  /// Dispatches on the statement kind (the lint CLI's entry point).
  std::vector<Diagnostic> AnalyzeStatement(const std::string& sql,
                                           const AnalyzeOptions& opts = {}) const;

  /// Re-analyzes an already-registered view *with its runtime state*: the
  /// definition checks plus DV007 (stale materialization fence) against
  /// `snap`. `sql` is re-rendered from the stored statement.
  std::vector<Diagnostic> AnalyzeRegisteredView(const ViewDefinition& view,
                                                const CatalogSnapshot& snap,
                                                const AnalyzeOptions& opts = {}) const;

 private:
  /// The DV004 fact for one (view, query) pair under both semantics, behind
  /// the view-definition and query-side DV004 checks.
  struct UsabilityFact {
    bool set_usable = false;
    bool multiset_usable = false;
    std::string set_reason;       // Empty when set_usable.
    std::string multiset_reason;  // Empty when multiset_usable.
  };
  UsabilityFact ProbeUsability(const ViewDefinition& view,
                               const std::string& query_sql) const;

  std::vector<Diagnostic> AnalyzeViewStmt(const std::string& sql,
                                          const CreateViewStmt& parsed,
                                          const AnalyzeOptions& opts) const;

  const CatalogReader* catalog_;
  std::string default_db_;
};

/// Tallies `diags` into the `analyze.*` metrics family on `metrics`:
/// analyze.checks_run, analyze.diagnostics, analyze.errors,
/// analyze.warnings, analyze.notes.
void RecordAnalyzeMetrics(const std::vector<Diagnostic>& diags,
                          MetricsRegistry* metrics);

}  // namespace dynview

#endif  // DYNVIEW_ANALYZE_ANALYZER_H_
