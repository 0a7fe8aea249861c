#include "optimizer/plan.h"

#include "common/str_util.h"
#include "engine/expr_eval.h"
#include "engine/operators.h"

namespace dynview {

namespace {

std::string Indent(int n) { return std::string(static_cast<size_t>(n) * 2, ' '); }

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

/// Bindings over a named-column table: every column name is a variable name.
ColumnBindings NamedBindings(const Table& t) {
  ColumnBindings b;
  for (size_t i = 0; i < t.schema().num_columns(); ++i) {
    b.AddNamed(t.schema().column(i).name, static_cast<int>(i));
  }
  b.set_num_columns(t.schema().num_columns());
  return b;
}

/// A node's filters over its named-column output, through the engine's
/// filter operator.
Result<Table> FilterNamed(Table in,
                          const std::vector<std::unique_ptr<Expr>>& filters,
                          const ExecContext& ctx) {
  if (filters.empty()) return in;
  std::vector<const Expr*> conjuncts;
  for (const auto& f : filters) conjuncts.push_back(f.get());
  return FilterTable(in, NamedBindings(in), conjuncts, ctx);
}

}  // namespace

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto out = std::make_unique<PlanNode>();
  out->kind = kind;
  out->est_rows = est_rows;
  out->est_cost = est_cost;
  out->table = table;
  out->tuple_var = tuple_var;
  out->outputs = outputs;
  for (const auto& f : filters) out->filters.push_back(f->Clone());
  out->index = index;
  out->probe_key = probe_key;
  out->probe_keyword = probe_keyword;
  out->view_name = view_name;
  if (rewritten) out->rewritten = rewritten->Clone();
  out->covered_vars = covered_vars;
  out->absorbed_conjuncts = absorbed_conjuncts;
  if (left) out->left = left->Clone();
  if (right) out->right = right->Clone();
  for (const auto& c : join_conds) out->join_conds.push_back(c->Clone());
  return out;
}

std::string PlanNode::Describe(int indent) const {
  std::string out = Indent(indent);
  switch (kind) {
    case Kind::kTableScan:
      out += "TableScan(" + table.ToString() + " AS " + tuple_var + ")";
      break;
    case Kind::kIndexProbe:
      out += "IndexProbe(" + (index != nullptr ? index->name() : "?") +
             (probe_keyword.empty()
                  ? ", key = " + probe_key.ToString()
                  : ", keyword = '" + probe_keyword + "'") +
             ")";
      break;
    case Kind::kViewScan: {
      out += "ViewScan(" + view_name + " covering {";
      for (size_t i = 0; i < covered_vars.size(); ++i) {
        if (i > 0) out += ", ";
        out += covered_vars[i];
      }
      out += "}, absorbed " + std::to_string(absorbed_conjuncts) + " preds)";
      break;
    }
    case Kind::kJoin:
      out += "Join(";
      for (size_t i = 0; i < join_conds.size(); ++i) {
        if (i > 0) out += " AND ";
        out += join_conds[i]->ToString();
      }
      out += ")";
      break;
  }
  for (const auto& f : filters) out += " filter[" + f->ToString() + "]";
  out += "  rows=" + Fmt(est_rows) + " cost=" + Fmt(est_cost) + "\n";
  if (kind == Kind::kViewScan && rewritten != nullptr) {
    out += Indent(indent + 1) + "ship: " + rewritten->ToString() + "\n";
  }
  if (left) out += left->Describe(indent + 1);
  if (right) out += right->Describe(indent + 1);
  return out;
}

Result<Table> PlanNode::Execute(QueryEngine* engine, QueryContext* qc) const {
  // The engine's expression operators, run serially under the caller's
  // guard and program memo.
  ExecContext ctx;
  ctx.guard = qc;
  ctx.programs = qc == nullptr ? nullptr : qc->expr_programs().get();
  switch (kind) {
    case Kind::kTableScan: {
      // Held across the projection: the rows borrowed from the snapshot
      // must outlive their copy, even when no caller pins one.
      std::shared_ptr<const CatalogSnapshot> snap = engine->PinnedSnapshot(qc);
      DV_ASSIGN_OR_RETURN(const Table* base,
                          snap->ResolveTable(table.db, table.rel));
      // Project to named outputs, then filter.
      std::vector<int> cols;
      std::vector<std::string> names;
      for (const auto& [attr, name] : outputs) {
        int idx = base->schema().IndexOf(attr);
        if (idx < 0) {
          return Status::Internal("scan output attribute '" + attr +
                                  "' missing from " + table.ToString());
        }
        cols.push_back(idx);
        names.push_back(name);
      }
      DV_ASSIGN_OR_RETURN(Table projected, ProjectColumns(*base, cols, names));
      return FilterNamed(std::move(projected), filters, ctx);
    }
    case Kind::kIndexProbe: {
      if (index == nullptr) return Status::Internal("index probe without index");
      Table payload;
      if (probe_keyword.empty()) {
        DV_ASSIGN_OR_RETURN(payload, index->Probe(probe_key));
      } else {
        DV_ASSIGN_OR_RETURN(payload, index->ProbeKeyword(probe_keyword));
      }
      std::vector<int> cols;
      std::vector<std::string> names;
      for (const auto& [attr, name] : outputs) {
        int idx = payload.schema().IndexOf(attr);
        if (idx < 0) {
          return Status::Internal("index payload missing attribute '" + attr +
                                  "'");
        }
        cols.push_back(idx);
        names.push_back(name);
      }
      DV_ASSIGN_OR_RETURN(Table projected, ProjectColumns(payload, cols, names));
      return FilterNamed(std::move(projected), filters, ctx);
    }
    case Kind::kViewScan: {
      std::unique_ptr<SelectStmt> copy = rewritten->Clone();
      return engine->Execute(copy.get(), qc);
    }
    case Kind::kJoin: {
      DV_ASSIGN_OR_RETURN(Table lt, left->Execute(engine, qc));
      DV_ASSIGN_OR_RETURN(Table rt, right->Execute(engine, qc));
      ColumnBindings lb = NamedBindings(lt);
      ColumnBindings rb = NamedBindings(rt);
      // Split join_conds into hash keys and residual filters.
      std::vector<const Expr*> lkeys, rkeys;
      std::vector<const Expr*> residual;
      for (const auto& c : join_conds) {
        if (c->kind == ExprKind::kCompare && c->op == BinaryOp::kEq) {
          if (CanEvaluate(*c->left, lb) && CanEvaluate(*c->right, rb)) {
            lkeys.push_back(c->left.get());
            rkeys.push_back(c->right.get());
            continue;
          }
          if (CanEvaluate(*c->right, lb) && CanEvaluate(*c->left, rb)) {
            lkeys.push_back(c->right.get());
            rkeys.push_back(c->left.get());
            continue;
          }
        }
        residual.push_back(c.get());
      }
      Table joined;
      if (!lkeys.empty()) {
        DV_ASSIGN_OR_RETURN(joined,
                            JoinOnExprs(lt, lb, rt, rb, lkeys, rkeys, ctx));
      } else {
        DV_ASSIGN_OR_RETURN(joined, CrossProduct(lt, rt, ctx));
      }
      if (residual.empty()) return joined;
      return FilterTable(joined, NamedBindings(joined), residual, ctx);
    }
  }
  return Status::Internal("bad plan node kind");
}

}  // namespace dynview
