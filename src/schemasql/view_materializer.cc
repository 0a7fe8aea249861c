#include "schemasql/view_materializer.h"

#include <map>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "engine/operators.h"
#include "restructure/restructure.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace dynview {

Result<std::vector<std::pair<std::string, std::string>>>
ViewMaterializer::MaterializeSql(const std::string& create_view_sql,
                                 QueryEngine* engine, Catalog* target,
                                 const std::string& default_target_db,
                                 QueryContext* qc, uint64_t* commit_version) {
  DV_ASSIGN_OR_RETURN(std::unique_ptr<CreateViewStmt> view,
                      Parser::ParseCreateView(create_view_sql));
  return Materialize(*view, engine, target, default_target_db, qc,
                     commit_version);
}

Result<std::vector<std::pair<std::string, std::string>>>
ViewMaterializer::Materialize(const CreateViewStmt& view, QueryEngine* engine,
                              Catalog* target,
                              const std::string& default_target_db,
                              QueryContext* qc, uint64_t* commit_version) {
  DV_ASSIGN_OR_RETURN(std::vector<MaterializedPartition> parts,
                      Build(view, engine, default_target_db, qc));
  // Fault-injection point for the install: an injected error materializes
  // nothing (the partitions above are discarded, the catalog is untouched).
  if (FailPoints::AnyArmed()) {
    DV_RETURN_IF_ERROR(
        FailPoints::Check("engine.materialize", ToLower(view.name.text)));
  }
  // Install every partition in ONE commit, in Build's deterministic
  // (database, relation) order — a reader either sees the whole
  // materialization or none of it.
  std::vector<std::pair<std::string, std::string>> created;
  created.reserve(parts.size());
  DV_ASSIGN_OR_RETURN(
      uint64_t version, target->Mutate([&](CatalogTxn& txn) {
        for (MaterializedPartition& p : parts) {
          txn.GetOrCreateDatabase(p.db)->PutTable(p.rel, std::move(p.table));
          created.emplace_back(p.db, p.rel);
        }
        return Status::OK();
      }));
  if (commit_version != nullptr) *commit_version = version;
  return created;
}

Result<std::vector<MaterializedPartition>> ViewMaterializer::Build(
    const CreateViewStmt& view, QueryEngine* engine,
    const std::string& default_target_db, QueryContext* qc) {
  // Bind a private copy (annotates NameTerms and classifies labels).
  std::unique_ptr<CreateViewStmt> v = view.Clone();
  DV_ASSIGN_OR_RETURN(BoundView bv, Binder::BindView(v.get()));

  const size_t n = v->attrs.size();
  if (v->query->select_list.size() != n) {
    return Status::BindError(
        "view header has " + std::to_string(n) + " attributes but the query "
        "selects " + std::to_string(v->query->select_list.size()));
  }
  if (v->query->union_next != nullptr && (bv.db_is_variable ||
                                          bv.name_is_variable)) {
    return Status::Unsupported(
        "UNION bodies with dynamic relation/database labels");
  }

  // Positions of the (at most one) pivot attribute.
  std::vector<size_t> pivot_positions;
  for (size_t i = 0; i < n; ++i) {
    if (bv.attr_is_variable[i]) pivot_positions.push_back(i);
  }
  if (pivot_positions.size() > 1) {
    return Status::Unsupported(
        "more than one attribute variable in a view output schema");
  }

  // Augment the body to also emit the label variables.
  std::unique_ptr<SelectStmt> body = v->query->Clone();
  int db_col = -1, rel_col = -1, attr_col = -1;
  int next = static_cast<int>(n);
  if (bv.db_is_variable) {
    body->select_list.emplace_back(Expr::MakeVarRef(v->db.text), "xx_db");
    db_col = next++;
  }
  if (bv.name_is_variable) {
    body->select_list.emplace_back(Expr::MakeVarRef(v->name.text), "xx_rel");
    rel_col = next++;
  }
  if (!pivot_positions.empty()) {
    body->select_list.emplace_back(
        Expr::MakeVarRef(v->attrs[pivot_positions[0]].text), "xx_attr");
    attr_col = next++;
  }
  DV_ASSIGN_OR_RETURN(Table rows, engine->Execute(body.get(), qc));

  // Group rows by target (database, relation).
  std::string fixed_db = v->db.empty() ? default_target_db : v->db.text;
  std::map<std::pair<std::string, std::string>, std::vector<const Row*>>
      groups;
  for (const Row& r : rows.rows()) {
    std::string db_name = fixed_db;
    if (db_col >= 0) {
      if (r[db_col].is_null()) {
        return Status::EvalError("NULL database label in dynamic view");
      }
      db_name = r[db_col].ToLabel();
    }
    std::string rel_name = v->name.text;
    if (rel_col >= 0) {
      if (r[rel_col].is_null()) {
        return Status::EvalError("NULL relation label in dynamic view");
      }
      rel_name = r[rel_col].ToLabel();
    }
    groups[{db_name, rel_name}].push_back(&r);
  }

  // Each output relation of a dynamic view is built from its own row group,
  // so partitions materialize independently — in parallel on the engine's
  // pool when available — and are installed into the target catalog
  // serially, in the map's deterministic (database, relation) order.
  auto build_partition = [&](const std::vector<const Row*>& group_rows)
      -> Result<Table> {
    if (qc != nullptr) DV_RETURN_IF_ERROR(qc->CheckGuards());
    Table out;
    if (pivot_positions.empty()) {
      std::vector<Column> cols;
      for (size_t i = 0; i < n; ++i) {
        cols.emplace_back(v->attrs[i].text, TypeKind::kNull);
      }
      out = Table(Schema(std::move(cols)));
      for (const Row* r : group_rows) {
        Row nr(r->begin(), r->begin() + n);
        out.AppendRowUnchecked(std::move(nr));
      }
    } else {
      // Build the long form (const attrs..., label, value) then pivot with
      // the Sec. 3.1 full-outer-join semantics, then restore the header's
      // column order (constants before the pivot position, labels, rest).
      size_t p = pivot_positions[0];
      std::vector<Column> long_cols;
      std::vector<size_t> const_positions;
      for (size_t i = 0; i < n; ++i) {
        if (i == p) continue;
        long_cols.emplace_back(v->attrs[i].text, TypeKind::kNull);
        const_positions.push_back(i);
      }
      long_cols.emplace_back("xx_label", TypeKind::kString);
      long_cols.emplace_back("xx_value", TypeKind::kNull);
      Table long_form{Schema(std::move(long_cols))};
      for (const Row* r : group_rows) {
        Row nr;
        nr.reserve(const_positions.size() + 2);
        for (size_t i : const_positions) nr.push_back((*r)[i]);
        nr.push_back((*r)[attr_col]);
        nr.push_back((*r)[p]);
        long_form.AppendRowUnchecked(std::move(nr));
      }
      std::vector<std::string> group_names;
      for (size_t i : const_positions) group_names.push_back(v->attrs[i].text);
      DV_ASSIGN_OR_RETURN(Table pivoted, Pivot(long_form, group_names,
                                               "xx_label", "xx_value"));
      // Pivoted layout: [const attrs..., labels...]. Reorder so the label
      // block sits at the header's pivot position.
      size_t k = const_positions.size();
      size_t num_labels = pivoted.schema().num_columns() - k;
      std::vector<int> order;
      std::vector<std::string> names;
      size_t const_seen = 0;
      for (size_t i = 0; i < n; ++i) {
        if (i == p) {
          for (size_t l = 0; l < num_labels; ++l) {
            order.push_back(static_cast<int>(k + l));
            names.push_back(pivoted.schema().column(k + l).name);
          }
        } else {
          order.push_back(static_cast<int>(const_seen));
          names.push_back(pivoted.schema().column(const_seen).name);
          ++const_seen;
        }
      }
      DV_ASSIGN_OR_RETURN(out, ProjectColumns(pivoted, order, names));
    }
    return out;
  };

  std::vector<const std::pair<const std::pair<std::string, std::string>,
                              std::vector<const Row*>>*>
      ordered;
  ordered.reserve(groups.size());
  for (const auto& g : groups) ordered.push_back(&g);
  std::vector<Result<Table>> outs(ordered.size(),
                                  Result<Table>(Status::Internal("pending")));
  ThreadPool* pool =
      groups.size() > 1 && rows.num_rows() > engine->exec_config().morsel_rows
          ? engine->EnsurePool()
          : nullptr;
  auto build_one = [&](size_t i) {
    outs[i] = build_partition(ordered[i]->second);
  };
  if (pool != nullptr) {
    pool->ParallelFor(ordered.size(), build_one,
                      qc == nullptr ? nullptr : qc->cancel_flag());
  } else {
    for (size_t i = 0; i < ordered.size(); ++i) build_one(i);
  }
  // A tripped guard means some partitions were skipped: install nothing
  // rather than a partially materialized view.
  if (qc != nullptr) DV_RETURN_IF_ERROR(qc->CheckGuards());

  for (size_t i = 0; i < ordered.size(); ++i) {
    if (!outs[i].ok()) return outs[i].status();
  }
  std::vector<MaterializedPartition> parts;
  parts.reserve(ordered.size());
  for (size_t i = 0; i < ordered.size(); ++i) {
    const auto& key = ordered[i]->first;
    parts.push_back(MaterializedPartition{key.first, key.second,
                                          std::move(outs[i]).value()});
  }
  return parts;
}

}  // namespace dynview
