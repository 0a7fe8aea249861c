#include "evolve/evolution.h"

#include <algorithm>
#include <set>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "restructure/restructure.h"
#include "schemasql/view_materializer.h"

namespace dynview {

const char* DdlKindName(DdlKind kind) {
  switch (kind) {
    case DdlKind::kAddAttribute:
      return "add-attribute";
    case DdlKind::kDropAttribute:
      return "drop-attribute";
    case DdlKind::kRenameAttribute:
      return "rename-attribute";
    case DdlKind::kRenameRelation:
      return "rename-relation";
    case DdlKind::kPromoteLabelToData:
      return "promote-label-to-data";
    case DdlKind::kDemoteDataToLabel:
      return "demote-data-to-label";
  }
  return "unknown";
}

DdlOp DdlOp::AddAttribute(std::string db, std::string rel, std::string attr,
                          Value fill) {
  DdlOp op;
  op.kind = DdlKind::kAddAttribute;
  op.db = std::move(db);
  op.rel = std::move(rel);
  op.attr = std::move(attr);
  op.fill = std::move(fill);
  return op;
}

DdlOp DdlOp::DropAttribute(std::string db, std::string rel, std::string attr) {
  DdlOp op;
  op.kind = DdlKind::kDropAttribute;
  op.db = std::move(db);
  op.rel = std::move(rel);
  op.attr = std::move(attr);
  return op;
}

DdlOp DdlOp::RenameAttribute(std::string db, std::string rel, std::string attr,
                             std::string new_name) {
  DdlOp op;
  op.kind = DdlKind::kRenameAttribute;
  op.db = std::move(db);
  op.rel = std::move(rel);
  op.attr = std::move(attr);
  op.new_name = std::move(new_name);
  return op;
}

DdlOp DdlOp::RenameRelation(std::string db, std::string rel,
                            std::string new_name) {
  DdlOp op;
  op.kind = DdlKind::kRenameRelation;
  op.db = std::move(db);
  op.rel = std::move(rel);
  op.new_name = std::move(new_name);
  return op;
}

DdlOp DdlOp::DemoteDataToLabel(std::string db, std::string rel,
                               std::string attr) {
  DdlOp op;
  op.kind = DdlKind::kDemoteDataToLabel;
  op.db = std::move(db);
  op.rel = std::move(rel);
  op.attr = std::move(attr);
  return op;
}

DdlOp DdlOp::PromoteLabelToData(std::string db,
                                std::vector<std::string> family,
                                std::string rel, std::string attr) {
  DdlOp op;
  op.kind = DdlKind::kPromoteLabelToData;
  op.db = std::move(db);
  op.family = std::move(family);
  op.rel = std::move(rel);
  op.attr = std::move(attr);
  return op;
}

std::string DdlOp::ToString() const {
  std::string out = std::string(DdlKindName(kind)) + " " + db + "::" + rel;
  switch (kind) {
    case DdlKind::kAddAttribute:
      out += " +" + attr + "=" + fill.ToString();
      break;
    case DdlKind::kDropAttribute:
      out += " -" + attr;
      break;
    case DdlKind::kRenameAttribute:
      out += " " + attr + "->" + new_name;
      break;
    case DdlKind::kRenameRelation:
      out += " ->" + new_name;
      break;
    case DdlKind::kDemoteDataToLabel:
      out += " by " + attr;
      break;
    case DdlKind::kPromoteLabelToData: {
      out += " from [";
      for (size_t i = 0; i < family.size(); ++i) {
        if (i > 0) out += ",";
        out += family[i];
      }
      out += "] label " + attr;
      break;
    }
  }
  return out;
}

namespace {

std::string ChangedKey(const std::string& db, const std::string& rel) {
  return ToLower(db) + "::" + ToLower(rel);
}

void RecordChanged(std::vector<std::string>* changed, const std::string& db,
                   const std::string& rel) {
  if (changed != nullptr) changed->push_back(ChangedKey(db, rel));
}

Status RequireName(const std::string& value, const char* what) {
  if (value.empty()) {
    return Status::InvalidArgument(std::string("evolution op needs a ") +
                                   what);
  }
  return Status::OK();
}

/// True when `view` reads from or materializes into `db_key` (lowercased).
/// Database granularity matches the staleness fence exactly.
bool TouchesDatabase(const ViewDefinition& view, const std::string& db_key) {
  if (view.db_term().is_variable) return true;
  for (const TableRef& t : view.tables()) {
    if (t.db == db_key) return true;
  }
  for (const TableRef& t : view.materialization()) {
    if (t.db == db_key) return true;
  }
  return false;
}

}  // namespace

/// Registration normalizes a view body into explicit-variable form, which
/// declares a domain variable for EVERY attribute of the defining relation
/// (see ViewDefinition::Create). Those extra declarations pin the view to
/// attributes it never reads, so dropping or renaming an unrelated column
/// would spuriously break re-materialization. An unused first-order domain
/// variable binds exactly once per tuple — removing its declaration never
/// changes the result — so we prune, to a fixpoint, every kDomainVar item
/// whose variable appears nowhere else in the statement.
std::unique_ptr<CreateViewStmt> PruneUnusedDomainVars(
    const CreateViewStmt& stmt) {
  std::unique_ptr<CreateViewStmt> pruned = stmt.Clone();
  auto used_in = [](const SelectStmt& body, const CreateViewStmt& header) {
    std::set<std::string> used;
    auto add_expr = [&used](const Expr* e) {
      if (e == nullptr) return;
      std::vector<std::string> vars;
      e->CollectVarRefs(&vars);
      for (const std::string& v : vars) used.insert(ToLower(v));
    };
    auto add_term = [&used](const NameTerm& t) {
      if (t.is_variable) used.insert(ToLower(t.text));
    };
    for (const SelectItem& s : body.select_list) add_expr(s.expr.get());
    add_expr(body.where.get());
    for (const auto& g : body.group_by) add_expr(g.get());
    add_expr(body.having.get());
    for (const OrderItem& o : body.order_by) add_expr(o.expr.get());
    add_term(header.db);
    add_term(header.name);
    for (const NameTerm& a : header.attrs) add_term(a);
    for (const FromItem& f : body.from_items) {
      add_term(f.db);
      add_term(f.rel);
      add_term(f.attr);
      if (f.kind == FromItemKind::kDomainVar) used.insert(ToLower(f.tuple));
    }
    return used;
  };
  for (SelectStmt* body = pruned->query.get(); body != nullptr;
       body = body->union_next.get()) {
    for (bool changed = true; changed;) {
      changed = false;
      std::set<std::string> used = used_in(*body, *pruned);
      for (auto it = body->from_items.begin(); it != body->from_items.end();
           ++it) {
        if (it->kind != FromItemKind::kDomainVar) continue;
        if (it->attr.is_variable) continue;  // Pivoting decl: load-bearing.
        if (used.count(ToLower(it->var)) != 0) continue;
        body->from_items.erase(it);
        changed = true;
        break;
      }
    }
  }
  return pruned;
}

SchemaEvolver::SchemaEvolver(Catalog* catalog, IntegrationSystem* system)
    : catalog_(catalog), system_(system) {}

Status SchemaEvolver::ApplyToTxn(CatalogTxn& txn, const DdlOp& op,
                                 std::vector<std::string>* tables_changed) {
  DV_RETURN_IF_ERROR(RequireName(op.db, "database name"));
  switch (op.kind) {
    case DdlKind::kAddAttribute: {
      DV_RETURN_IF_ERROR(RequireName(op.rel, "relation name"));
      DV_RETURN_IF_ERROR(RequireName(op.attr, "attribute name"));
      DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase(op.db));
      DV_ASSIGN_OR_RETURN(const Table* t, db->GetTable(op.rel));
      if (t->schema().HasColumn(op.attr)) {
        return Status::InvalidArgument("attribute '" + op.attr +
                                       "' already exists in " + op.db +
                                       "::" + op.rel);
      }
      Table next = *t;
      DV_RETURN_IF_ERROR(
          next.mutable_schema()->AddColumn(Column(op.attr, op.fill.kind())));
      Table filled{next.schema()};
      for (const Row& r : next.rows()) {
        Row nr = r;
        nr.push_back(op.fill);
        filled.AppendRowUnchecked(std::move(nr));
      }
      db->PutTable(op.rel, std::move(filled));
      RecordChanged(tables_changed, op.db, op.rel);
      return Status::OK();
    }
    case DdlKind::kDropAttribute: {
      DV_RETURN_IF_ERROR(RequireName(op.rel, "relation name"));
      DV_RETURN_IF_ERROR(RequireName(op.attr, "attribute name"));
      DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase(op.db));
      DV_ASSIGN_OR_RETURN(const Table* t, db->GetTable(op.rel));
      int idx = t->schema().IndexOf(op.attr);
      if (idx < 0) {
        return Status::InvalidArgument("no attribute '" + op.attr + "' in " +
                                       op.db + "::" + op.rel);
      }
      if (t->schema().num_columns() == 1) {
        return Status::InvalidArgument(
            "cannot drop the last attribute of " + op.db + "::" + op.rel);
      }
      std::vector<Column> cols;
      for (size_t i = 0; i < t->schema().num_columns(); ++i) {
        if (static_cast<int>(i) == idx) continue;
        cols.push_back(t->schema().column(i));
      }
      Table next{Schema(std::move(cols))};
      for (const Row& r : t->rows()) {
        Row nr;
        nr.reserve(r.size() - 1);
        for (size_t i = 0; i < r.size(); ++i) {
          if (static_cast<int>(i) == idx) continue;
          nr.push_back(r[i]);
        }
        next.AppendRowUnchecked(std::move(nr));
      }
      db->PutTable(op.rel, std::move(next));
      RecordChanged(tables_changed, op.db, op.rel);
      return Status::OK();
    }
    case DdlKind::kRenameAttribute: {
      DV_RETURN_IF_ERROR(RequireName(op.rel, "relation name"));
      DV_RETURN_IF_ERROR(RequireName(op.attr, "attribute name"));
      DV_RETURN_IF_ERROR(RequireName(op.new_name, "new attribute name"));
      DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase(op.db));
      DV_ASSIGN_OR_RETURN(const Table* t, db->GetTable(op.rel));
      int idx = t->schema().IndexOf(op.attr);
      if (idx < 0) {
        return Status::InvalidArgument("no attribute '" + op.attr + "' in " +
                                       op.db + "::" + op.rel);
      }
      if (t->schema().HasColumn(op.new_name)) {
        return Status::InvalidArgument("attribute '" + op.new_name +
                                       "' already exists in " + op.db +
                                       "::" + op.rel);
      }
      std::vector<Column> cols = t->schema().columns();
      cols[idx].name = op.new_name;
      Table next = *t;
      *next.mutable_schema() = Schema(std::move(cols));
      db->PutTable(op.rel, std::move(next));
      RecordChanged(tables_changed, op.db, op.rel);
      return Status::OK();
    }
    case DdlKind::kRenameRelation: {
      DV_RETURN_IF_ERROR(RequireName(op.rel, "relation name"));
      DV_RETURN_IF_ERROR(RequireName(op.new_name, "new relation name"));
      DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase(op.db));
      DV_ASSIGN_OR_RETURN(const Table* t, db->GetTable(op.rel));
      if (ToLower(op.new_name) != ToLower(op.rel) &&
          db->HasTable(op.new_name)) {
        return Status::InvalidArgument("relation '" + op.new_name +
                                       "' already exists in " + op.db);
      }
      Table moved = *t;
      DV_RETURN_IF_ERROR(db->DropTable(op.rel));
      DV_RETURN_IF_ERROR(db->AddTable(op.new_name, std::move(moved)));
      RecordChanged(tables_changed, op.db, op.rel);
      RecordChanged(tables_changed, op.db, op.new_name);
      return Status::OK();
    }
    case DdlKind::kDemoteDataToLabel: {
      DV_RETURN_IF_ERROR(RequireName(op.rel, "relation name"));
      DV_RETURN_IF_ERROR(RequireName(op.attr, "label attribute name"));
      DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase(op.db));
      DV_ASSIGN_OR_RETURN(const Table* t, db->GetTable(op.rel));
      DV_ASSIGN_OR_RETURN(auto parts, PartitionByColumn(*t, op.attr));
      // Empty relations have no labels to carry them (the capacity caveat
      // of Sec. 4.2): demoting one would silently erase the relation.
      if (parts.empty()) {
        return Status::InvalidArgument(
            "cannot demote empty relation " + op.db + "::" + op.rel +
            " (no labels to partition by)");
      }
      for (const auto& [label, table] : parts) {
        if (ToLower(label) != ToLower(op.rel) && db->HasTable(label)) {
          return Status::InvalidArgument(
              "demote label '" + label + "' collides with an existing "
              "relation in " + op.db);
        }
      }
      DV_RETURN_IF_ERROR(db->DropTable(op.rel));
      RecordChanged(tables_changed, op.db, op.rel);
      for (auto& [label, table] : parts) {
        DV_RETURN_IF_ERROR(db->AddTable(label, std::move(table)));
        RecordChanged(tables_changed, op.db, label);
      }
      return Status::OK();
    }
    case DdlKind::kPromoteLabelToData: {
      DV_RETURN_IF_ERROR(RequireName(op.rel, "new relation name"));
      DV_RETURN_IF_ERROR(RequireName(op.attr, "label attribute name"));
      if (op.family.empty()) {
        return Status::InvalidArgument(
            "promote-label-to-data needs a non-empty relation family");
      }
      DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase(op.db));
      std::vector<std::pair<std::string, Table>> parts;
      parts.reserve(op.family.size());
      for (const std::string& member : op.family) {
        DV_ASSIGN_OR_RETURN(const Table* t, db->GetTable(member));
        if (!parts.empty() &&
            !t->schema().SameNames(parts.front().second.schema())) {
          return Status::InvalidArgument(
              "promote family is schematically heterogeneous: " + member +
              " has schema " + t->schema().ToString() + ", " +
              parts.front().first + " has " +
              parts.front().second.schema().ToString());
        }
        if (t->schema().HasColumn(op.attr)) {
          return Status::InvalidArgument(
              "label attribute '" + op.attr + "' collides with a column of " +
              op.db + "::" + member);
        }
        parts.emplace_back(member, *t);
      }
      DV_ASSIGN_OR_RETURN(Table united, Unite(parts, op.attr));
      std::set<std::string> family_keys;
      for (const std::string& member : op.family) {
        family_keys.insert(ToLower(member));
      }
      if (family_keys.count(ToLower(op.rel)) == 0 && db->HasTable(op.rel)) {
        return Status::InvalidArgument("relation '" + op.rel +
                                       "' already exists in " + op.db);
      }
      for (const std::string& member : op.family) {
        DV_RETURN_IF_ERROR(db->DropTable(member));
        RecordChanged(tables_changed, op.db, member);
      }
      DV_RETURN_IF_ERROR(db->AddTable(op.rel, std::move(united)));
      RecordChanged(tables_changed, op.db, op.rel);
      return Status::OK();
    }
  }
  return Status::Unsupported("unknown DDL kind");
}

Result<EvolutionResult> SchemaEvolver::Apply(const DdlOp& op,
                                             const EvolveOptions& options) {
  if (FailPoints::AnyArmed()) {
    DV_RETURN_IF_ERROR(FailPoints::Check(
        "evolve.apply", ToLower(op.db) + "::" + ToLower(op.rel)));
  }
  EvolutionResult result;
  DV_ASSIGN_OR_RETURN(
      result.version,
      catalog_->Mutate(
          [&](CatalogTxn& txn) {
            return ApplyToTxn(txn, op, &result.tables_changed);
          },
          std::string("evolve.") + DdlKindName(op.kind)));
  std::sort(result.tables_changed.begin(), result.tables_changed.end());
  result.tables_changed.erase(
      std::unique(result.tables_changed.begin(), result.tables_changed.end()),
      result.tables_changed.end());
  DV_RETURN_IF_ERROR(Propagate(op, options, &result));
  return result;
}

Result<std::vector<EvolutionResult>> SchemaEvolver::ApplyAll(
    const std::vector<DdlOp>& ops, const EvolveOptions& options) {
  std::vector<EvolutionResult> results;
  results.reserve(ops.size());
  for (const DdlOp& op : ops) {
    DV_ASSIGN_OR_RETURN(EvolutionResult r, Apply(op, options));
    results.push_back(std::move(r));
  }
  return results;
}

bool SchemaEvolver::Touches(const ViewDefinition& view,
                            const std::string& db_key) {
  return TouchesDatabase(view, db_key);
}

Status SchemaEvolver::Propagate(const DdlOp& op, const EvolveOptions& options,
                                EvolutionResult* out) {
  if (system_ == nullptr) return Status::OK();
  std::shared_ptr<const CatalogSnapshot> snap = catalog_->Snapshot();
  const std::string db_key = ToLower(op.db);
  const auto& sources = system_->sources();
  for (size_t i = 0; i < sources.size(); ++i) {
    ViewDefinition* view = sources[i].get();
    if (!TouchesDatabase(*view, db_key)) continue;
    ++out->sources_affected;
    bool definition_broken = false;
    if (options.relint) {
      std::vector<Diagnostic> diags = system_->LintSource(i, *snap);
      definition_broken = HasErrors(diags);
      for (Diagnostic& d : diags) out->relint.push_back(std::move(d));
    }
    if (!view->fenced() || !view->IsStaleAgainst(*snap)) continue;
    if (!options.rematerialize || definition_broken) {
      ++out->left_stale;
      out->warnings.push_back(SourceWarning{
          view->DisplayName(),
          Status::Unavailable(
              "left fenced (stale) by " + op.ToString() +
              (definition_broken ? ": definition no longer lints clean"
                                 : ": re-materialization disabled"))});
      continue;
    }
    // Rebuild the materialization from I's evolved contents. The fresh
    // partition set installs — and the obsolete one retires — in ONE
    // commit tagged for replay, so the fence advance survives crashes and
    // a fan-out query can never observe a half-evolved source.
    std::unique_ptr<CreateViewStmt> remat_stmt =
        PruneUnusedDomainVars(view->stmt());
    Result<std::vector<MaterializedPartition>> built =
        ViewMaterializer::Build(*remat_stmt, system_->engine(),
                                system_->integration_db());
    if (!built.ok()) {
      ++out->left_stale;
      out->warnings.push_back(SourceWarning{
          view->DisplayName(),
          Status::Unavailable("left fenced (stale) by " + op.ToString() +
                              ": re-materialization failed: " +
                              built.status().message())});
      continue;
    }
    std::vector<MaterializedPartition> parts = std::move(built).value();
    std::vector<TableRef> new_refs;
    new_refs.reserve(parts.size());
    std::set<std::string> fresh;
    for (const MaterializedPartition& p : parts) {
      new_refs.push_back(TableRef{ToLower(p.db), ToLower(p.rel)});
      fresh.insert(new_refs.back().ToString());
    }
    std::vector<TableRef> obsolete;
    for (const TableRef& old : view->materialization()) {
      if (fresh.count(old.ToString()) == 0) obsolete.push_back(old);
    }
    bool fence_published = false;
    Result<uint64_t> committed = catalog_->Mutate(
        [&](CatalogTxn& txn) {
          for (const TableRef& old : obsolete) {
            Result<Database*> db = txn.GetMutableDatabase(old.db);
            if (!db.ok()) continue;  // Whole database already gone.
            if (db.value()->HasTable(old.rel)) {
              DV_RETURN_IF_ERROR(db.value()->DropTable(old.rel));
            }
          }
          for (MaterializedPartition& p : parts) {
            txn.GetOrCreateDatabase(p.db)->PutTable(p.rel,
                                                    std::move(p.table));
          }
          return Status::OK();
        },
        EvolveRematTag(i, new_refs),
        [&](uint64_t version) {
          // The fresh partitions and their fence publish together.
          view->set_materialization(std::move(new_refs));
          view->AdvanceMaterializedVersion(version);
          fence_published = true;
        });
    if (!committed.ok()) {
      ++out->left_stale;
      out->warnings.push_back(SourceWarning{
          view->DisplayName(),
          Status::Unavailable("left fenced (stale) by " + op.ToString() +
                              ": re-materialization commit failed: " +
                              committed.status().message())});
      continue;
    }
    if (!fence_published) {
      // Nothing to install or retire (the body selects no rows before and
      // after): the commit touched nothing and published no version, so the
      // head it returned already reflects the evolution.
      view->set_materialization(std::move(new_refs));
      view->AdvanceMaterializedVersion(committed.value());
    }
    ++out->rematerialized;
  }
  // Indexes are built against I and have no incremental rebuild path yet:
  // an evolution of the integration database re-fences every registered
  // index (the optimizer's version fence keeps them from serving until
  // they are re-registered).
  if (db_key == ToLower(system_->integration_db())) {
    out->indexes_fenced = system_->indexes().size();
    for (const auto& index : system_->indexes()) {
      out->warnings.push_back(SourceWarning{
          "index " + index->name(),
          Status::Unavailable("re-fenced by " + op.ToString() +
                              ": index built at catalog version " +
                              std::to_string(index->build_version()))});
    }
  }
  DedupSourceWarnings(&out->warnings);
  return Status::OK();
}

}  // namespace dynview
