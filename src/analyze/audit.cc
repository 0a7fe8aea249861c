#include "analyze/audit.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <utility>

#include "analyze/analyzer.h"
#include "common/str_util.h"
#include "core/containment.h"
#include "evolve/evolution.h"
#include "observe/metrics.h"
#include "sql/parser.h"

namespace dynview {

namespace {

std::string ViewLabel(size_t index, const ViewDefinition& view) {
  return "view[" + std::to_string(index) + "] " + view.DisplayName();
}

Diagnostic MakeAudit(const char* code, Severity severity, std::string message,
                     std::string fix_hint, int statement) {
  Diagnostic d;
  d.code = code;
  d.severity = severity;
  d.message = std::move(message);
  d.fix_hint = std::move(fix_hint);
  d.statement = statement;
  for (const CheckInfo& c : CheckCatalog()) {
    if (d.code == c.code) {
      d.anchor = c.anchor;
      break;
    }
  }
  return d;
}

/// Pairwise checks only make sense between views with the same schematic
/// shape: position-wise, the Db/Rel/Att terms must be variable in one iff
/// variable in the other (a relation-partition view and an attribute pivot
/// export structurally different schemas even when one body contains the
/// other). Aggregates and unions are outside the SPJ fragment the checker
/// proves over.
bool PairComparable(const ViewDefinition& a, const ViewDefinition& b) {
  if (a.IsAggregateView() || b.IsAggregateView()) return false;
  if (a.body().union_next != nullptr || b.body().union_next != nullptr) {
    return false;
  }
  if (a.db_term().is_variable != b.db_term().is_variable) return false;
  if (a.rel_term().is_variable != b.rel_term().is_variable) return false;
  if (a.att_terms().size() != b.att_terms().size()) return false;
  for (size_t i = 0; i < a.att_terms().size(); ++i) {
    if (a.att_terms()[i].is_variable != b.att_terms()[i].is_variable) {
      return false;
    }
  }
  return true;
}

/// The view's SPJ core extended with its schematic dimension: the body
/// select list (Sel(V), positionally Dom(att i)) plus every header variable
/// appended in canonical order (db, rel, atts). Two PairComparable views
/// then align position-by-position, so proving containment of the extended
/// cores proves containment of the views *including* which partition /
/// column each row lands in.
std::string ExtendedCoreSql(const ViewDefinition& view) {
  std::unique_ptr<SelectStmt> body = view.body().Clone();
  auto append_var = [&body](const NameTerm& t) {
    if (!t.is_variable) return;
    body->select_list.emplace_back(Expr::MakeVarRef(t.text), "");
  };
  append_var(view.db_term());
  append_var(view.rel_term());
  for (const NameTerm& t : view.att_terms()) append_var(t);
  return body->ToString();
}

/// Collects the concrete tables a CREATE INDEX body scans (tuple-variable
/// declarations over constant relations; a variable relation scans the
/// whole database and contributes no single table node).
void CollectIndexTables(const SelectStmt& body,
                        const std::string& integration_db,
                        std::vector<TableRef>* out) {
  for (const SelectStmt* s = &body; s != nullptr; s = s->union_next.get()) {
    for (const FromItem& f : s->from_items) {
      if (f.kind != FromItemKind::kTupleVar) continue;
      if (f.rel.is_variable) continue;
      std::string db = (f.db.empty() || f.db.is_variable) ? integration_db
                                                          : f.db.text;
      out->push_back(TableRef{ToLower(db), ToLower(f.rel.text)});
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

// Statically predicts whether re-materializing `view` against `snap` would
// succeed. SchemaEvolver::Propagate attempts the real rebuild and leaves the
// source fenced when it fails, even if the definition still lints clean; the
// post-DDL failure modes are a body table that no longer exists and a
// constant domain-variable attribute that no longer names a column, both
// decidable from the snapshot alone. The rebuild runs on the body with
// unused domain declarations pruned away (registration declares one per base
// attribute), so feasibility is judged against the same pruned form.
// Variable relation/attribute terms range over whatever exists, so they
// cannot make the rebuild fail and are skipped.
bool RebuildFeasible(const ViewDefinition& view, const CatalogSnapshot& snap,
                     const std::string& integration_db) {
  std::unique_ptr<CreateViewStmt> pruned = PruneUnusedDomainVars(view.stmt());
  for (const SelectStmt* branch = pruned->query.get(); branch != nullptr;
       branch = branch->union_next.get()) {
    for (const FromItem& item : branch->from_items) {
      if (item.kind == FromItemKind::kTupleVar) {
        if (item.db.is_variable || item.rel.is_variable) continue;
        std::string db_name =
            item.db.empty() ? integration_db : item.db.text;
        Result<const Database*> db = snap.GetDatabase(db_name);
        if (!db.ok()) return false;
        if (!db.value()->GetTable(item.rel.text).ok()) return false;
        continue;
      }
      if (item.kind != FromItemKind::kDomainVar || item.attr.is_variable) {
        continue;
      }
      for (const FromItem& tv : branch->from_items) {
        if (tv.kind != FromItemKind::kTupleVar || tv.var != item.tuple) {
          continue;
        }
        if (tv.db.is_variable || tv.rel.is_variable) break;
        std::string db_name = tv.db.empty() ? integration_db : tv.db.text;
        Result<const Database*> db = snap.GetDatabase(db_name);
        if (!db.ok()) return false;
        Result<const Table*> table = db.value()->GetTable(tv.rel.text);
        if (!table.ok()) return false;
        if (!table.value()->schema().HasColumn(item.attr.text)) return false;
        break;
      }
    }
  }
  return true;
}

size_t SumBodyTableRows(const ViewDefinition& view,
                        const CatalogSnapshot& snap) {
  size_t rows = 0;
  for (const TableRef& t : view.tables()) {
    Result<const Database*> db = snap.GetDatabase(t.db);
    if (!db.ok()) continue;
    Result<const Table*> table = db.value()->GetTable(t.rel);
    if (!table.ok()) continue;
    rows += table.value()->num_rows();
  }
  return rows;
}

}  // namespace

std::vector<AuditIndexInfo> WorkloadAuditor::DescribeIndexes(
    const std::vector<std::shared_ptr<ViewIndex>>& indexes,
    const std::string& integration_db) {
  std::vector<AuditIndexInfo> out;
  out.reserve(indexes.size());
  for (const auto& index : indexes) {
    AuditIndexInfo info = DescribeIndexSql(index->definition(), integration_db);
    info.name = index->name();
    out.push_back(std::move(info));
  }
  return out;
}

AuditIndexInfo WorkloadAuditor::DescribeIndexSql(
    const std::string& create_index_sql, const std::string& integration_db) {
  AuditIndexInfo info;
  Result<std::unique_ptr<CreateIndexStmt>> parsed =
      Parser::ParseCreateIndex(create_index_sql);
  if (!parsed.ok()) return info;
  info.name = parsed.value()->name;
  if (parsed.value()->query != nullptr) {
    CollectIndexTables(*parsed.value()->query, integration_db, &info.tables);
  }
  return info;
}

WorkloadAuditor::WorkloadAuditor(
    std::shared_ptr<const CatalogSnapshot> snap, std::string integration_db,
    std::vector<std::shared_ptr<ViewDefinition>> sources,
    std::vector<AuditIndexInfo> indexes, MetricsRegistry* metrics)
    : snap_(std::move(snap)),
      integration_db_(std::move(integration_db)),
      sources_(std::move(sources)),
      indexes_(std::move(indexes)),
      metrics_(metrics) {}

AuditReport WorkloadAuditor::Audit() const {
  AuditReport report;
  report.catalog_version = snap_->version();

  DependencyGraph graph =
      DependencyGraph::Build(*snap_, integration_db_, sources_, indexes_);
  report.graph_stats = graph.stats();
  report.graph = graph.Describe();

  // DV100/DV101: pairwise containment over extended SPJ cores. The checker
  // is sound-not-complete, so every finding here is a proof; an unproved
  // pair is silent (never a false positive).
  ContainmentChecker checker(snap_.get(), integration_db_);
  std::vector<std::string> core_sql(sources_.size());
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (!sources_[i]->IsAggregateView() &&
        sources_[i]->body().union_next == nullptr) {
      core_sql[i] = ExtendedCoreSql(*sources_[i]);
    }
  }
  for (size_t j = 1; j < sources_.size(); ++j) {
    for (size_t i = 0; i < j; ++i) {
      const ViewDefinition& a = *sources_[i];
      const ViewDefinition& b = *sources_[j];
      if (!PairComparable(a, b)) continue;
      ++report.pairs_checked;
      Result<bool> fwd = checker.Contained(core_sql[i], core_sql[j]);
      Result<bool> bwd = checker.Contained(core_sql[j], core_sql[i]);
      bool a_in_b = fwd.ok() && fwd.value();
      bool b_in_a = bwd.ok() && bwd.value();
      if (a_in_b && b_in_a) {
        ++report.duplicates;
        report.diagnostics.push_back(MakeAudit(
            "DV100", Severity::kWarning,
            ViewLabel(j, b) + " is set-equivalent to " + ViewLabel(i, a) +
                " — the workload maintains the same source twice",
            "drop one definition, or serve both names from a single "
            "materialization",
            static_cast<int>(j)));
      } else if (a_in_b) {
        ++report.subsumed;
        report.diagnostics.push_back(MakeAudit(
            "DV101", Severity::kWarning,
            ViewLabel(i, a) + " is contained in " + ViewLabel(j, b) +
                " — every row the narrower view supplies is already in the "
                "wider one",
            "merge: answer " + a.DisplayName() + "'s queries from " +
                b.DisplayName() + " (add the defining predicate) and "
                "retire the narrower materialization",
            static_cast<int>(i)));
      } else if (b_in_a) {
        ++report.subsumed;
        report.diagnostics.push_back(MakeAudit(
            "DV101", Severity::kWarning,
            ViewLabel(j, b) + " is contained in " + ViewLabel(i, a) +
                " — every row the narrower view supplies is already in the "
                "wider one",
            "merge: answer " + b.DisplayName() + "'s queries from " +
                a.DisplayName() + " (add the defining predicate) and "
                "retire the narrower materialization",
            static_cast<int>(j)));
      }
    }
  }

  // DV102: fenced materializations stale against the audited snapshot —
  // every query that could use them falls back, so they are pure upkeep.
  for (size_t i = 0; i < sources_.size(); ++i) {
    const ViewDefinition& view = *sources_[i];
    if (!view.fenced() || !view.IsStaleAgainst(*snap_)) continue;
    ++report.shadowed;
    report.diagnostics.push_back(MakeAudit(
        "DV102", Severity::kWarning,
        "materialization of " + ViewLabel(i, view) +
            " (built @v" + std::to_string(view.materialized_version()) +
            ") is shadowed at v" + std::to_string(snap_->version()) +
            ": every query falls back past the fence",
        "re-materialize via schema evolution or retire the materialization",
        static_cast<int>(i)));
  }

  // DV103: tables with no reachable view/query path (DependencyGraph owns
  // the scope rule: workload-referenced databases only, integration db
  // excluded).
  for (const std::string& table : graph.unused_tables()) {
    ++report.unused;
    report.diagnostics.push_back(MakeAudit(
        "DV103", Severity::kNote,
        "table " + table + " has no reachable view/query path: no "
            "registered view or index reads it and no materialization "
            "targets it",
        "register a source over it or drop it from the federation", 0));
  }

  SortDiagnostics(&report.diagnostics);

  if (metrics_ != nullptr) {
    metrics_->Add(counters::kAuditRuns, 1);
    metrics_->Add(counters::kAuditPairsChecked, report.pairs_checked);
    metrics_->Add(counters::kAuditDuplicates, report.duplicates);
    metrics_->Add(counters::kAuditSubsumed, report.subsumed);
    metrics_->Add(counters::kAuditShadowed, report.shadowed);
    metrics_->Add(counters::kAuditUnused, report.unused);
  }
  return report;
}

WhatIfReport WorkloadAuditor::WhatIf(const DdlOp& op) const {
  WhatIfReport report;
  report.op_text = op.ToString();
  report.base_version = snap_->version();
  if (metrics_ != nullptr) metrics_->Add(counters::kAuditWhatIfRuns, 1);

  // Apply the op to a scratch copy of the audited snapshot. The copy keeps
  // per-database versions and the head version, and Mutate commits as
  // head+1 — exactly the version arithmetic the live catalog would use, so
  // staleness fences evaluate identically against the scratch snapshot.
  Catalog scratch;
  if (snap_->version() != 0 || snap_->num_databases() != 0) {
    std::vector<RecoveredDatabase> dbs;
    for (const std::string& name : snap_->DatabaseNames()) {
      Result<const Database*> db = snap_->GetDatabase(name);
      if (!db.ok()) continue;
      dbs.push_back(RecoveredDatabase{name, snap_->DatabaseVersion(name),
                                      *db.value()});
    }
    Status installed =
        scratch.InstallRecoveredSnapshot(snap_->version(), std::move(dbs));
    if (!installed.ok()) {
      report.op_error = "what-if setup failed: " + installed.message();
      return report;
    }
  }
  std::vector<std::string> tables_changed;
  Result<uint64_t> committed = scratch.Mutate(
      [&](CatalogTxn& txn) {
        return SchemaEvolver::ApplyToTxn(txn, op, &tables_changed);
      },
      std::string("audit.whatif.") + DdlKindName(op.kind));
  if (!committed.ok()) {
    report.op_error = committed.status().message();
    return report;
  }
  report.op_valid = true;
  report.predicted_version = committed.value();
  std::sort(tables_changed.begin(), tables_changed.end());
  tables_changed.erase(
      std::unique(tables_changed.begin(), tables_changed.end()),
      tables_changed.end());
  report.tables_changed = std::move(tables_changed);

  // Replay SchemaEvolver::Propagate's decisions symbolically against the
  // post-DDL snapshot: same affected predicate, same re-lint, same
  // fenced-stale precondition, same broken-definition branch.
  std::shared_ptr<const CatalogSnapshot> post = scratch.Snapshot();
  const std::string db_key = ToLower(op.db);
  Analyzer analyzer(post.get(), integration_db_);
  for (size_t i = 0; i < sources_.size(); ++i) {
    const ViewDefinition& view = *sources_[i];
    if (!SchemaEvolver::Touches(view, db_key)) continue;
    ++report.sources_affected;
    WhatIfSourceImpact impact;
    impact.index = i;
    impact.name = view.DisplayName();
    std::vector<Diagnostic> diags = analyzer.AnalyzeRegisteredView(view, *post);
    for (Diagnostic& d : diags) {
      d.statement = static_cast<int>(i);
      impact.definition_broken |= d.severity == Severity::kError;
      report.relint.push_back(std::move(d));
    }
    impact.fenced_stale = view.fenced() && view.IsStaleAgainst(*post);
    if (impact.fenced_stale) {
      // Propagation leaves a source fenced when its definition no longer
      // lints clean OR the rebuild itself would fail against the post-DDL
      // schemas (a lint-clean body can still reference a dropped column).
      if (impact.definition_broken ||
          !RebuildFeasible(view, *post, integration_db_)) {
        impact.left_stale = true;
        ++report.left_stale;
      } else {
        impact.rematerialized = true;
        impact.rebuild_rows = SumBodyTableRows(view, *post);
        ++report.rematerialized;
      }
    }
    report.impacts.push_back(std::move(impact));
  }
  if (db_key == ToLower(integration_db_)) {
    report.indexes_fenced = indexes_.size();
  }
  SortDiagnostics(&report.relint);
  return report;
}

// --- ParseDdlOp -------------------------------------------------------------

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

bool AllDigits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) return false;
  }
  return true;
}

/// Inverts Value::ToString(): NULL, TRUE/FALSE, integer digits, %g double,
/// ''-escaped 'string'.
Result<Value> ParseFillValue(const std::string& text) {
  if (text == "NULL") return Value::Null();
  if (text == "TRUE") return Value::Bool(true);
  if (text == "FALSE") return Value::Bool(false);
  if (text.size() >= 2 && text.front() == '\'' && text.back() == '\'') {
    std::string s;
    for (size_t i = 1; i + 1 < text.size(); ++i) {
      if (text[i] == '\'') {
        if (i + 2 < text.size() && text[i + 1] == '\'') {
          s += '\'';
          ++i;
        } else {
          return Status::InvalidArgument("bad string literal: " + text);
        }
      } else {
        s += text[i];
      }
    }
    return Value::String(std::move(s));
  }
  std::string digits = text;
  if (!digits.empty() && (digits[0] == '-' || digits[0] == '+')) {
    digits = digits.substr(1);
  }
  if (AllDigits(digits)) {
    try {
      return Value::Int(std::stoll(text));
    } catch (...) {
      return Status::InvalidArgument("integer out of range: " + text);
    }
  }
  try {
    size_t consumed = 0;
    double d = std::stod(text, &consumed);
    if (consumed == text.size()) return Value::Double(d);
  } catch (...) {
  }
  return Status::InvalidArgument("unsupported fill literal: " + text);
}

Status SplitTarget(const std::string& target, std::string* db,
                   std::string* rel) {
  size_t sep = target.find("::");
  if (sep == std::string::npos || sep == 0 || sep + 2 >= target.size()) {
    return Status::InvalidArgument("expected db::rel, got '" + target + "'");
  }
  *db = target.substr(0, sep);
  *rel = target.substr(sep + 2);
  return Status::OK();
}

}  // namespace

Result<DdlOp> ParseDdlOp(const std::string& text) {
  const std::string input = Trim(text);
  size_t sp1 = input.find(' ');
  if (sp1 == std::string::npos) {
    return Status::InvalidArgument("expected '<kind> db::rel ...', got '" +
                                   input + "'");
  }
  const std::string kind = input.substr(0, sp1);
  std::string rest = Trim(input.substr(sp1 + 1));
  size_t sp2 = rest.find(' ');
  const std::string target = sp2 == std::string::npos ? rest
                                                      : rest.substr(0, sp2);
  rest = sp2 == std::string::npos ? "" : Trim(rest.substr(sp2 + 1));
  std::string db, rel;
  DV_RETURN_IF_ERROR(SplitTarget(target, &db, &rel));

  if (kind == "add-attribute") {
    // +attr=value (the value may contain spaces inside a quoted string).
    if (rest.empty() || rest[0] != '+') {
      return Status::InvalidArgument("add-attribute expects '+attr=value'");
    }
    size_t eq = rest.find('=');
    if (eq == std::string::npos || eq < 2) {
      return Status::InvalidArgument("add-attribute expects '+attr=value'");
    }
    std::string attr = rest.substr(1, eq - 1);
    DV_ASSIGN_OR_RETURN(Value fill, ParseFillValue(Trim(rest.substr(eq + 1))));
    return DdlOp::AddAttribute(db, rel, attr, std::move(fill));
  }
  if (kind == "drop-attribute") {
    if (rest.size() < 2 || rest[0] != '-') {
      return Status::InvalidArgument("drop-attribute expects '-attr'");
    }
    return DdlOp::DropAttribute(db, rel, rest.substr(1));
  }
  if (kind == "rename-attribute") {
    size_t arrow = rest.find("->");
    if (arrow == std::string::npos || arrow == 0 ||
        arrow + 2 >= rest.size()) {
      return Status::InvalidArgument("rename-attribute expects 'attr->new'");
    }
    return DdlOp::RenameAttribute(db, rel, Trim(rest.substr(0, arrow)),
                                  Trim(rest.substr(arrow + 2)));
  }
  if (kind == "rename-relation") {
    if (rest.rfind("->", 0) != 0 || rest.size() < 3) {
      return Status::InvalidArgument("rename-relation expects '->new'");
    }
    return DdlOp::RenameRelation(db, rel, Trim(rest.substr(2)));
  }
  if (kind == "demote-data-to-label") {
    if (rest.rfind("by ", 0) != 0) {
      return Status::InvalidArgument("demote-data-to-label expects 'by attr'");
    }
    return DdlOp::DemoteDataToLabel(db, rel, Trim(rest.substr(3)));
  }
  if (kind == "promote-label-to-data") {
    // from [a,b] label attr
    if (rest.rfind("from [", 0) != 0) {
      return Status::InvalidArgument(
          "promote-label-to-data expects 'from [a,b] label attr'");
    }
    size_t close = rest.find(']');
    if (close == std::string::npos) {
      return Status::InvalidArgument("unterminated relation family list");
    }
    std::string family_text = rest.substr(6, close - 6);
    std::vector<std::string> family;
    size_t start = 0;
    while (start <= family_text.size()) {
      size_t comma = family_text.find(',', start);
      std::string member = Trim(family_text.substr(
          start, comma == std::string::npos ? std::string::npos
                                            : comma - start));
      if (!member.empty()) family.push_back(std::move(member));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    std::string tail = Trim(rest.substr(close + 1));
    if (tail.rfind("label ", 0) != 0) {
      return Status::InvalidArgument(
          "promote-label-to-data expects 'label attr' after the family");
    }
    return DdlOp::PromoteLabelToData(db, std::move(family), rel,
                                     Trim(tail.substr(6)));
  }
  return Status::InvalidArgument("unknown DDL kind '" + kind + "'");
}

// --- Renderings -------------------------------------------------------------

namespace {

std::string EmbedDiagnosticsJson(const std::vector<Diagnostic>& diags) {
  std::string body = RenderDiagnosticsJson(diags);
  while (!body.empty() && body.back() == '\n') body.pop_back();
  return body;
}

}  // namespace

std::string RenderAuditText(const AuditReport& report) {
  std::string out =
      "== workload audit @v" + std::to_string(report.catalog_version) +
      " ==\n";
  out += report.graph;
  out += "== findings ==\n";
  if (report.diagnostics.empty()) {
    out += "no workload findings\n";
  } else {
    out += RenderDiagnosticsText(report.diagnostics);
  }
  out += "pairs checked: " + std::to_string(report.pairs_checked) +
         "; duplicates: " + std::to_string(report.duplicates) +
         "; subsumed: " + std::to_string(report.subsumed) +
         "; shadowed: " + std::to_string(report.shadowed) +
         "; unused: " + std::to_string(report.unused) + "\n";
  return out;
}

std::string RenderAuditJson(const AuditReport& report) {
  const DepGraphStats& g = report.graph_stats;
  std::string out = "{\n";
  out += "  \"catalog_version\": " + std::to_string(report.catalog_version) +
         ",\n";
  out += "  \"graph\": {\"tables\": " + std::to_string(g.tables) +
         ", \"views\": " + std::to_string(g.views) +
         ", \"indexes\": " + std::to_string(g.indexes) +
         ", \"edges\": " + std::to_string(g.edges) +
         ", \"cycles\": " + std::to_string(g.cycles) +
         ", \"max_fan_in\": {\"node\": \"" + JsonEscape(g.max_fan_in_table) +
         "\", \"count\": " + std::to_string(g.max_fan_in) +
         "}, \"max_fan_out\": {\"node\": \"" +
         JsonEscape(g.max_fan_out_view) +
         "\", \"count\": " + std::to_string(g.max_fan_out) + "}},\n";
  out += "  \"pairs_checked\": " + std::to_string(report.pairs_checked) +
         ",\n";
  out += "  \"duplicates\": " + std::to_string(report.duplicates) + ",\n";
  out += "  \"subsumed\": " + std::to_string(report.subsumed) + ",\n";
  out += "  \"shadowed\": " + std::to_string(report.shadowed) + ",\n";
  out += "  \"unused\": " + std::to_string(report.unused) + ",\n";
  out += "  \"findings\": " + EmbedDiagnosticsJson(report.diagnostics) + "\n";
  out += "}\n";
  return out;
}

std::string RenderWhatIfText(const WhatIfReport& report) {
  std::string out = "== what-if " + report.op_text + " ==\n";
  if (!report.op_valid) {
    out += "invalid: " + report.op_error + "\n";
    return out;
  }
  out += "version: v" + std::to_string(report.base_version) + " -> v" +
         std::to_string(report.predicted_version) + "\n";
  out += "tables changed:";
  if (report.tables_changed.empty()) {
    out += " (none)";
  } else {
    for (const std::string& t : report.tables_changed) out += " " + t;
  }
  out += "\n";
  out += "sources affected: " + std::to_string(report.sources_affected) +
         " (rematerialized: " + std::to_string(report.rematerialized) +
         ", left stale: " + std::to_string(report.left_stale) +
         "); indexes re-fenced: " + std::to_string(report.indexes_fenced) +
         "\n";
  for (const WhatIfSourceImpact& s : report.impacts) {
    out += "view[" + std::to_string(s.index) + "] " + s.name + ": ";
    out += s.definition_broken ? "definition broken" : "re-lints clean";
    if (s.rematerialized) {
      out += "; rematerialize O(base)=" + std::to_string(s.rebuild_rows) +
             " row(s)";
    } else if (s.left_stale) {
      out += "; left fenced (stale)";
    } else if (!s.fenced_stale) {
      out += "; materialization unaffected";
    }
    out += "\n";
  }
  out += "== predicted re-lint ==\n";
  if (report.relint.empty()) {
    out += "clean\n";
  } else {
    out += RenderDiagnosticsText(report.relint);
  }
  return out;
}

std::string RenderWhatIfJson(const WhatIfReport& report) {
  std::string out = "{\n";
  out += "  \"op\": \"" + JsonEscape(report.op_text) + "\",\n";
  out += std::string("  \"op_valid\": ") +
         (report.op_valid ? "true" : "false") + ",\n";
  if (!report.op_valid) {
    out += "  \"op_error\": \"" + JsonEscape(report.op_error) + "\"\n";
    out += "}\n";
    return out;
  }
  out += "  \"base_version\": " + std::to_string(report.base_version) + ",\n";
  out += "  \"predicted_version\": " +
         std::to_string(report.predicted_version) + ",\n";
  out += "  \"tables_changed\": [";
  for (size_t i = 0; i < report.tables_changed.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(report.tables_changed[i]) + "\"";
  }
  out += "],\n";
  out += "  \"sources_affected\": " +
         std::to_string(report.sources_affected) + ",\n";
  out += "  \"rematerialized\": " + std::to_string(report.rematerialized) +
         ",\n";
  out += "  \"left_stale\": " + std::to_string(report.left_stale) + ",\n";
  out += "  \"indexes_fenced\": " + std::to_string(report.indexes_fenced) +
         ",\n";
  out += "  \"impacts\": [";
  for (size_t i = 0; i < report.impacts.size(); ++i) {
    const WhatIfSourceImpact& s = report.impacts[i];
    if (i > 0) out += ',';
    out += "\n    {\"index\": " + std::to_string(s.index) + ", \"name\": \"" +
           JsonEscape(s.name) + "\", \"definition_broken\": " +
           (s.definition_broken ? "true" : "false") +
           ", \"rematerialized\": " + (s.rematerialized ? "true" : "false") +
           ", \"left_stale\": " + (s.left_stale ? "true" : "false") +
           ", \"rebuild_rows\": " + std::to_string(s.rebuild_rows) + "}";
  }
  out += report.impacts.empty() ? "],\n" : "\n  ],\n";
  out += "  \"relint\": " + EmbedDiagnosticsJson(report.relint) + "\n";
  out += "}\n";
  return out;
}

}  // namespace dynview
