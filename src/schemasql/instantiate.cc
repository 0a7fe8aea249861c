#include "schemasql/instantiate.h"

#include "common/str_util.h"

namespace dynview {

namespace {

/// Resolves a label term to a concrete name under a partial grounding.
std::string GroundLabelText(const NameTerm& term,
                            const std::map<std::string, std::string>& labels,
                            const std::string& fallback) {
  if (term.empty()) return fallback;
  if (term.is_variable) {
    auto it = labels.find(ToLower(term.text));
    return it == labels.end() ? "" : it->second;
  }
  return term.text;
}

void SubstituteExpr(Expr* e, const BoundQuery& bq,
                    const std::map<std::string, std::string>& labels) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kVarRef) {
    const BoundVariable* v = bq.Find(e->var_name);
    if (v != nullptr && IsSchemaVarClass(v->cls)) {
      auto it = labels.find(ToLower(e->var_name));
      if (it != labels.end()) {
        e->kind = ExprKind::kLiteral;
        e->literal = Value::String(it->second);
        e->var_name.clear();
      }
    }
    return;
  }
  if (e->kind == ExprKind::kColumnRef && e->column.is_variable) {
    auto it = labels.find(ToLower(e->column.text));
    if (it != labels.end()) {
      e->column.text = it->second;
      e->column.is_variable = false;
    }
    return;
  }
  SubstituteExpr(e->left.get(), bq, labels);
  SubstituteExpr(e->right.get(), bq, labels);
}

void GroundNameTerm(NameTerm* term,
                    const std::map<std::string, std::string>& labels) {
  if (term->is_variable) {
    auto it = labels.find(ToLower(term->text));
    if (it != labels.end()) {
      term->text = it->second;
      term->is_variable = false;
    }
  }
}

/// The database a tuple reference resolves against: its explicit qualifier,
/// or the database its relation variable ranged over, or the default.
std::string TupleDbLabel(const FromItem& f, const Grounding& g,
                         const std::string& default_db) {
  if (!f.db.empty()) return GroundLabelText(f.db, g.labels, default_db);
  if (f.rel.is_variable) {
    auto it = g.relvar_db.find(ToLower(f.rel.text));
    if (it != g.relvar_db.end()) return it->second;
  }
  return default_db;
}

}  // namespace

void GroundTupleRef(const Grounding& grounding, FromItem* f) {
  // A reference through a relation variable inherits that variable's
  // database (e.g. `s2 -> R, R T` must scan relations *of s2*).
  if (f->db.empty() && f->rel.is_variable) {
    auto it = grounding.relvar_db.find(ToLower(f->rel.text));
    if (it != grounding.relvar_db.end()) {
      f->db = NameTerm(it->second);
    }
  }
  GroundNameTerm(&f->db, grounding.labels);
  GroundNameTerm(&f->rel, grounding.labels);
}

std::unique_ptr<Expr> SubstituteLabels(const Expr& e, const BoundQuery& bq,
                                       const Grounding& grounding) {
  std::unique_ptr<Expr> out = e.Clone();
  SubstituteExpr(out.get(), bq, grounding.labels);
  return out;
}

std::unique_ptr<SelectStmt> SubstituteLabels(const SelectStmt& stmt,
                                             const BoundQuery& bq,
                                             const Grounding& grounding) {
  const auto& labels = grounding.labels;
  std::unique_ptr<SelectStmt> out = stmt.Clone();
  // Preserve output column names: bare references gain an alias before the
  // substitution turns them into literals.
  for (SelectItem& item : out->select_list) {
    if (!item.alias.empty() || item.expr == nullptr) continue;
    if (item.expr->kind == ExprKind::kVarRef) {
      item.alias = item.expr->var_name;
    } else if (item.expr->kind == ExprKind::kColumnRef) {
      item.alias = item.expr->column.text;
    }
  }
  // Drop grounded schema-variable declarations; ground label positions in
  // the remaining FROM items.
  std::vector<FromItem> kept;
  for (FromItem& f : out->from_items) {
    switch (f.kind) {
      case FromItemKind::kDatabaseVar:
      case FromItemKind::kRelationVar:
      case FromItemKind::kAttributeVar:
        if (labels.count(ToLower(f.var)) > 0) continue;  // Grounded away.
        kept.push_back(std::move(f));
        break;
      case FromItemKind::kTupleVar:
        GroundTupleRef(grounding, &f);
        kept.push_back(std::move(f));
        break;
      case FromItemKind::kDomainVar:
        GroundNameTerm(&f.attr, labels);
        kept.push_back(std::move(f));
        break;
    }
  }
  out->from_items = std::move(kept);
  // Ground expressions.
  for (SelectItem& item : out->select_list) {
    SubstituteExpr(item.expr.get(), bq, labels);
  }
  SubstituteExpr(out->where.get(), bq, labels);
  for (auto& g : out->group_by) SubstituteExpr(g.get(), bq, labels);
  SubstituteExpr(out->having.get(), bq, labels);
  for (OrderItem& o : out->order_by) SubstituteExpr(o.expr.get(), bq, labels);
  // UNION branches have their own scopes and are instantiated separately by
  // the engine; do not recurse. A LIMIT applies to the combined result, not
  // to individual groundings.
  out->union_next.reset();
  out->union_all = false;
  out->limit = -1;
  return out;
}

GroundingSet EnumerateGroundings(const SelectStmt& stmt,
                                 const CatalogReader& catalog,
                                 const std::string& default_db) {
  std::vector<Grounding> groundings;
  groundings.emplace_back();
  for (const FromItem& f : stmt.from_items) {
    std::vector<Grounding> next;
    switch (f.kind) {
      case FromItemKind::kDatabaseVar: {
        std::vector<std::string> dbs = catalog.DatabaseNames();
        for (const Grounding& g : groundings) {
          for (const std::string& db : dbs) {
            Grounding ng = g;
            ng.labels[ToLower(f.var)] = db;
            next.push_back(std::move(ng));
          }
        }
        break;
      }
      case FromItemKind::kRelationVar: {
        for (const Grounding& g : groundings) {
          std::string db_name = GroundLabelText(f.db, g.labels, default_db);
          Result<const Database*> db = catalog.GetDatabase(db_name);
          if (!db.ok()) continue;  // Empty range.
          for (const std::string& rel : db.value()->TableNames()) {
            Grounding ng = g;
            ng.labels[ToLower(f.var)] = rel;
            ng.relvar_db[ToLower(f.var)] = db_name;
            next.push_back(std::move(ng));
          }
        }
        break;
      }
      case FromItemKind::kAttributeVar: {
        for (const Grounding& g : groundings) {
          std::string db_name = GroundLabelText(f.db, g.labels, default_db);
          std::string rel_name = GroundLabelText(f.rel, g.labels, "");
          Result<const Table*> t = catalog.ResolveTable(db_name, rel_name);
          if (!t.ok()) continue;  // Empty range.
          for (const std::string& attr : t.value()->schema().ColumnNames()) {
            Grounding ng = g;
            ng.labels[ToLower(f.var)] = attr;
            next.push_back(std::move(ng));
          }
        }
        break;
      }
      case FromItemKind::kTupleVar:
      case FromItemKind::kDomainVar:
        continue;  // Not a schema variable; keep current groundings.
    }
    groundings = std::move(next);
  }

  GroundingSet out;
  out.enumerated = groundings.size();
  // Discard groundings under which a *variable-derived* tuple reference does
  // not exist (the variable "ranges over" valid labels only). Constant
  // references are left to the evaluator, which reports NotFound.
  for (Grounding& g : groundings) {
    bool feasible = true;
    for (const FromItem& f : stmt.from_items) {
      if (f.kind != FromItemKind::kTupleVar) continue;
      if (!f.db.is_variable && !f.rel.is_variable) continue;
      std::string db_name = TupleDbLabel(f, g, default_db);
      std::string rel_name = GroundLabelText(f.rel, g.labels, "");
      Result<const Table*> t = catalog.ResolveTable(db_name, rel_name);
      if (!t.ok() && t.status().code() == StatusCode::kNotFound) {
        // Only genuinely absent relations shrink the variable's range. Any
        // other resolution failure (e.g. an injected kUnavailable) means the
        // relation exists but is failing — keep the grounding so the
        // evaluation fan-out surfaces the error under the active
        // SourcePolicy instead of silently narrowing the query.
        feasible = false;
        break;
      }
    }
    if (!feasible) {
      ++out.pruned;
      continue;
    }
    out.groundings.push_back(std::move(g));
  }
  return out;
}

Result<std::vector<InstantiatedQuery>> InstantiateSchemaVars(
    const SelectStmt& stmt, const BoundQuery& bq, const CatalogReader& catalog,
    const std::string& default_db, MetricsRegistry* metrics) {
  GroundingSet set = EnumerateGroundings(stmt, catalog, default_db);
  if (metrics != nullptr) {
    metrics->Add(counters::kGroundingsEnumerated, set.enumerated);
    if (set.pruned > 0) metrics->Add(counters::kGroundingsPruned, set.pruned);
  }
  std::vector<InstantiatedQuery> out;
  out.reserve(set.groundings.size());
  for (Grounding& g : set.groundings) {
    InstantiatedQuery iq;
    iq.query = SubstituteLabels(stmt, bq, g);
    iq.labels = std::move(g.labels);
    out.push_back(std::move(iq));
  }
  return out;
}

}  // namespace dynview
