#include "schemasql/view_maintainer.h"

#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "engine/operators.h"
#include "engine/query_engine.h"
#include "restructure/restructure.h"
#include "sql/parser.h"

namespace dynview {

namespace {

/// Label (db, rel) routing of an augmented output row.
std::pair<std::string, std::string> RouteOf(const Row& row, int db_col,
                                            int rel_col,
                                            const std::string& fixed_db,
                                            const std::string& fixed_rel) {
  std::string db = db_col >= 0 ? row[db_col].ToLabel() : fixed_db;
  std::string rel = rel_col >= 0 ? row[rel_col].ToLabel() : fixed_rel;
  return {db, rel};
}

}  // namespace

Result<ViewMaintainer> ViewMaintainer::CreateFromSql(
    const std::string& create_view_sql, Catalog* catalog,
    const std::string& integration_db, const std::string& default_target_db) {
  DV_ASSIGN_OR_RETURN(std::unique_ptr<CreateViewStmt> view,
                      Parser::ParseCreateView(create_view_sql));
  return Create(*view, catalog, integration_db, default_target_db);
}

Result<ViewMaintainer> ViewMaintainer::Create(
    const CreateViewStmt& view, Catalog* catalog,
    const std::string& integration_db, const std::string& default_target_db) {
  ViewMaintainer m;
  m.catalog_ = catalog;
  m.integration_db_ = integration_db;
  m.default_target_db_ = default_target_db;
  m.view_ = view.Clone();
  DV_ASSIGN_OR_RETURN(m.bound_, Binder::BindView(m.view_.get()));
  if (m.bound_.body.higher_order) {
    return Status::Unsupported("maintenance of higher-order bodies");
  }
  const SelectStmt& body = *m.view_->query;
  if (body.union_next != nullptr || !body.group_by.empty() ||
      body.having != nullptr) {
    return Status::Unsupported(
        "maintenance covers single-block, non-aggregating bodies");
  }
  for (const SelectItem& item : body.select_list) {
    if (item.expr->ContainsAggregate()) {
      return Status::Unsupported("maintenance of aggregate views");
    }
  }
  // Single base relation.
  int tuples = 0;
  for (const FromItem& f : body.from_items) {
    if (f.kind != FromItemKind::kTupleVar) continue;
    ++tuples;
    std::string db = f.db.empty() ? integration_db : f.db.text;
    m.base_ = TableRef{ToLower(db), ToLower(f.rel.text)};
  }
  if (tuples != 1) {
    return Status::Unsupported(
        "maintenance covers views over a single base relation");
  }
  DV_ASSIGN_OR_RETURN(const Table* base,
                      catalog->ResolveTable(m.base_.db, m.base_.rel));
  m.base_schema_ = base->schema();
  // Classify header labels (mirrors ViewMaterializer's layout).
  if (m.view_->attrs.size() != body.select_list.size()) {
    return Status::BindError("view header arity mismatch");
  }
  int next = static_cast<int>(m.view_->attrs.size());
  if (m.bound_.db_is_variable) m.db_col_ = next++;
  if (m.bound_.name_is_variable) m.rel_col_ = next++;
  for (size_t i = 0; i < m.view_->attrs.size(); ++i) {
    if (m.bound_.attr_is_variable[i]) {
      if (m.pivot_position_ >= 0) {
        return Status::Unsupported("more than one attribute variable");
      }
      m.pivot_position_ = static_cast<int>(i);
    } else {
      m.const_positions_.push_back(i);
    }
  }
  if (m.pivot_position_ >= 0) m.attr_col_ = next++;
  // Resolve group columns to base columns (enables pre-filtering the base
  // during pivot group recomputation). A position resolves when its select
  // item is a plain domain variable over a base attribute.
  std::map<std::string, std::string> attr_of_var;  // var → attr (lower).
  for (const FromItem& f : body.from_items) {
    if (f.kind == FromItemKind::kDomainVar && !f.attr.is_variable) {
      attr_of_var[ToLower(f.var)] = ToLower(f.attr.text);
    }
  }
  for (size_t i : m.const_positions_) {
    int resolved = -1;
    const Expr& e = *body.select_list[i].expr;
    if (e.kind == ExprKind::kVarRef) {
      auto it = attr_of_var.find(ToLower(e.var_name));
      if (it != attr_of_var.end()) {
        resolved = m.base_schema_.IndexOf(it->second);
      }
    } else if (e.kind == ExprKind::kColumnRef && !e.column.is_variable) {
      resolved = m.base_schema_.IndexOf(e.column.text);
    }
    m.const_base_columns_.push_back(resolved);
  }
  return m;
}

Result<Table> ViewMaintainer::EvaluateBodyOver(
    const std::vector<Row>& delta) const {
  // A shadow catalog exposing only the delta under the base relation's
  // name, so the unchanged body evaluates the delta image.
  Catalog shadow;
  Table t(base_schema_);
  for (const Row& r : delta) {
    if (r.size() != base_schema_.num_columns()) {
      return Status::InvalidArgument("delta row arity mismatch");
    }
    t.AppendRowUnchecked(r);
  }
  DV_RETURN_IF_ERROR(shadow.PutTable(base_.db, base_.rel, std::move(t)));
  QueryEngine engine(&shadow, integration_db_);
  // Augment with label variables exactly like the materializer.
  std::unique_ptr<SelectStmt> body = view_->query->Clone();
  if (db_col_ >= 0) {
    body->select_list.emplace_back(Expr::MakeVarRef(view_->db.text), "xx_db");
  }
  if (rel_col_ >= 0) {
    body->select_list.emplace_back(Expr::MakeVarRef(view_->name.text),
                                   "xx_rel");
  }
  if (attr_col_ >= 0) {
    body->select_list.emplace_back(
        Expr::MakeVarRef(view_->attrs[pivot_position_].text), "xx_attr");
  }
  return engine.Execute(body.get());
}

Status ViewMaintainer::ApplyInserts(const std::vector<Row>& rows) {
  // One transaction: the base append and the propagated view updates
  // publish together or not at all.
  Result<uint64_t> committed =
      catalog_->Mutate([&](CatalogTxn& txn) -> Status {
        if (FailPoints::AnyArmed()) {
          DV_RETURN_IF_ERROR(FailPoints::Check("maintainer.delta",
                                               base_.db + "::" + base_.rel));
        }
        // Base first (pivot recomputation reads the new state through the
        // transaction's read-your-writes view).
        DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase(base_.db));
        DV_ASSIGN_OR_RETURN(Table * base, db->GetMutableTable(base_.rel));
        for (const Row& r : rows) {
          DV_RETURN_IF_ERROR(base->AppendRow(r));
        }
        if (pivot_position_ >= 0) return RecomputeAffectedGroups(txn, rows);
        return PropagateAppend(txn, rows);
      }, commit_tag_, [this](uint64_t version) { AdvanceFence(version); });
  return committed.status();
}

Status ViewMaintainer::ApplyDeletes(const std::vector<Row>& rows) {
  Result<uint64_t> committed =
      catalog_->Mutate([&](CatalogTxn& txn) -> Status {
        if (FailPoints::AnyArmed()) {
          DV_RETURN_IF_ERROR(FailPoints::Check("maintainer.delta",
                                               base_.db + "::" + base_.rel));
        }
        DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase(base_.db));
        DV_ASSIGN_OR_RETURN(Table * base, db->GetMutableTable(base_.rel));
        // Bag-subtract from the base.
        std::unordered_map<Row, int64_t, RowGroupHash, RowGroupEq> to_remove;
        for (const Row& r : rows) ++to_remove[r];
        Table kept(base->schema());
        std::vector<Row> actually_removed;
        for (const Row& r : base->rows()) {
          auto it = to_remove.find(r);
          if (it != to_remove.end() && it->second > 0) {
            --it->second;
            actually_removed.push_back(r);
            continue;
          }
          kept.AppendRowUnchecked(r);
        }
        *base = std::move(kept);
        if (pivot_position_ >= 0) {
          return RecomputeAffectedGroups(txn, actually_removed);
        }
        return PropagateRemove(txn, actually_removed);
      }, commit_tag_, [this](uint64_t version) { AdvanceFence(version); });
  return committed.status();
}

void ViewMaintainer::AdvanceFence(uint64_t version) {
  if (fence_ != nullptr) fence_->AdvanceMaterializedVersion(version);
}

Status ViewMaintainer::PropagateAppend(CatalogTxn& txn,
                                       const std::vector<Row>& delta) {
  DV_ASSIGN_OR_RETURN(Table out, EvaluateBodyOver(delta));
  const size_t n = view_->attrs.size();
  std::string fixed_db =
      view_->db.empty() ? default_target_db_ : view_->db.text;
  for (const Row& r : out.rows()) {
    auto [db, rel] = RouteOf(r, db_col_, rel_col_, fixed_db, view_->name.text);
    Database* d = txn.GetOrCreateDatabase(db);
    if (!d->HasTable(rel)) {
      std::vector<Column> cols;
      for (size_t i = 0; i < n; ++i) {
        cols.emplace_back(view_->attrs[i].text, TypeKind::kNull);
      }
      d->PutTable(rel, Table(Schema(std::move(cols))));
    }
    DV_ASSIGN_OR_RETURN(Table * t, d->GetMutableTable(rel));
    t->AppendRowUnchecked(Row(r.begin(), r.begin() + n));
  }
  return Status::OK();
}

Status ViewMaintainer::PropagateRemove(CatalogTxn& txn,
                                       const std::vector<Row>& delta) {
  DV_ASSIGN_OR_RETURN(Table out, EvaluateBodyOver(delta));
  const size_t n = view_->attrs.size();
  std::string fixed_db =
      view_->db.empty() ? default_target_db_ : view_->db.text;
  // Group removals per target table.
  std::map<std::pair<std::string, std::string>,
           std::unordered_map<Row, int64_t, RowGroupHash, RowGroupEq>>
      removals;
  for (const Row& r : out.rows()) {
    auto route = RouteOf(r, db_col_, rel_col_, fixed_db, view_->name.text);
    ++removals[route][Row(r.begin(), r.begin() + n)];
  }
  for (auto& [route, bag] : removals) {
    Result<Database*> d = txn.GetMutableDatabase(route.first);
    if (!d.ok()) continue;
    Result<Table*> t = d.value()->GetMutableTable(route.second);
    if (!t.ok()) continue;
    Table kept(t.value()->schema());
    for (const Row& r : t.value()->rows()) {
      auto it = bag.find(r);
      if (it != bag.end() && it->second > 0) {
        --it->second;
        continue;
      }
      kept.AppendRowUnchecked(r);
    }
    *t.value() = std::move(kept);
    // A label table emptied by deletion disappears (the label no longer
    // exists in the data — symmetric with creation on insert).
    if (t.value()->num_rows() == 0 &&
        (rel_col_ >= 0 || db_col_ >= 0)) {
      DV_RETURN_IF_ERROR(d.value()->DropTable(route.second));
    }
  }
  return Status::OK();
}

Status ViewMaintainer::RecomputeAffectedGroups(CatalogTxn& txn,
                                               const std::vector<Row>& delta) {
  // 1. Affected (target, group-key) sets from the delta image. Keys are
  // value rows under GroupEquals semantics (no rendering in hot paths).
  using KeySet = std::unordered_set<Row, RowGroupHash, RowGroupEq>;
  DV_ASSIGN_OR_RETURN(Table image, EvaluateBodyOver(delta));
  std::string fixed_db =
      view_->db.empty() ? default_target_db_ : view_->db.text;
  std::map<std::pair<std::string, std::string>, KeySet> affected;
  auto key_of = [&](const Row& r) {
    Row key;
    key.reserve(const_positions_.size());
    for (size_t i : const_positions_) key.push_back(r[i]);
    return key;
  };
  for (const Row& r : image.rows()) {
    auto route = RouteOf(r, db_col_, rel_col_, fixed_db, view_->name.text);
    affected[route].insert(key_of(r));
  }

  // 2. Image of the (already updated) base through the body, restricted —
  // when every group column is a direct base projection — to rows that can
  // possibly land in an affected group. Read through the transaction: the
  // base update of this delta is visible, the committed head is not yet.
  DV_ASSIGN_OR_RETURN(const Table* base,
                      txn.ResolveTable(base_.db, base_.rel));
  bool can_prefilter = true;
  for (int c : const_base_columns_) {
    if (c < 0) can_prefilter = false;
  }
  std::vector<Row> candidate_rows;
  if (can_prefilter) {
    KeySet all_keys;
    for (const auto& [route, keys] : affected) {
      all_keys.insert(keys.begin(), keys.end());
    }
    Row key(const_base_columns_.size());
    for (const Row& r : base->rows()) {
      for (size_t k = 0; k < const_base_columns_.size(); ++k) {
        key[k] = r[const_base_columns_[k]];
      }
      if (all_keys.count(key) > 0) candidate_rows.push_back(r);
    }
  } else {
    candidate_rows = base->rows();
  }
  DV_ASSIGN_OR_RETURN(Table full, EvaluateBodyOver(candidate_rows));

  for (const auto& [route, keys] : affected) {
    // Rows of this target whose group key is affected, in long form.
    std::vector<Column> long_cols;
    for (size_t i : const_positions_) {
      long_cols.emplace_back(view_->attrs[i].text, TypeKind::kNull);
    }
    long_cols.emplace_back("xx_label", TypeKind::kString);
    long_cols.emplace_back("xx_value", TypeKind::kNull);
    Table long_form{Schema(std::move(long_cols))};
    for (const Row& r : full.rows()) {
      if (RouteOf(r, db_col_, rel_col_, fixed_db, view_->name.text) != route) {
        continue;
      }
      if (keys.count(key_of(r)) == 0) continue;
      Row nr;
      for (size_t i : const_positions_) nr.push_back(r[i]);
      nr.push_back(r[attr_col_]);
      nr.push_back(r[pivot_position_]);
      long_form.AppendRowUnchecked(std::move(nr));
    }
    std::vector<std::string> group_names;
    for (size_t i : const_positions_) group_names.push_back(view_->attrs[i].text);
    DV_ASSIGN_OR_RETURN(Table repivoted,
                        Pivot(long_form, group_names, "xx_label", "xx_value"));

    // 3. Splice: drop old rows of affected groups, merge schemas by name,
    // append the recomputed rows.
    Database* d = txn.GetOrCreateDatabase(route.first);
    if (!d->HasTable(route.second)) {
      d->PutTable(route.second, Table(repivoted.schema()));
    }
    DV_ASSIGN_OR_RETURN(Table * current, d->GetMutableTable(route.second));
    // Union of column names: group columns first (existing order), then
    // existing labels, then new labels.
    Schema merged = current->schema();
    for (const Column& c : repivoted.schema().columns()) {
      if (!merged.HasColumn(c.name)) {
        DV_RETURN_IF_ERROR(merged.AddColumn(c));
      }
    }
    Table next{merged};
    std::vector<int> group_idx;
    for (const std::string& g : group_names) {
      group_idx.push_back(current->schema().IndexOf(g));
    }
    auto current_key = [&](const Row& r) {
      Row key;
      key.reserve(group_idx.size());
      for (int gi : group_idx) {
        key.push_back(gi >= 0 ? r[gi] : Value::Null());
      }
      return key;
    };
    for (const Row& r : current->rows()) {
      if (keys.count(current_key(r)) > 0) continue;  // Replaced below.
      Row nr(merged.num_columns(), Value::Null());
      for (size_t c = 0; c < current->schema().num_columns(); ++c) {
        int idx = merged.IndexOf(current->schema().column(c).name);
        nr[idx] = r[c];
      }
      next.AppendRowUnchecked(std::move(nr));
    }
    for (const Row& r : repivoted.rows()) {
      Row nr(merged.num_columns(), Value::Null());
      for (size_t c = 0; c < repivoted.schema().num_columns(); ++c) {
        int idx = merged.IndexOf(repivoted.schema().column(c).name);
        nr[idx] = r[c];
      }
      next.AppendRowUnchecked(std::move(nr));
    }
    d->PutTable(route.second, std::move(next));
  }
  return Status::OK();
}

}  // namespace dynview
