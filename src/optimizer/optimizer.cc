#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <set>

#include "common/str_util.h"
#include "core/normalize.h"
#include "optimizer/stats.h"
#include "sql/parser.h"

namespace dynview {

namespace {

// Textbook selectivity constants (System R heritage).
constexpr double kSelEqConst = 0.1;
constexpr double kSelRange = 0.3;
constexpr double kSelOther = 0.5;
constexpr double kSelJoinEq = 0.1;
constexpr int kMaxTables = 14;

struct ConjunctInfo {
  const Expr* expr = nullptr;
  uint32_t mask = 0;       // Tables referenced.
  bool placeable = true;   // All variables map to tables.
  double selectivity = kSelOther;
};

bool IsVarConstCompare(const Expr& e, BinaryOp* op) {
  if (e.kind != ExprKind::kCompare) return false;
  bool lc = e.left->kind == ExprKind::kLiteral;
  bool rc = e.right->kind == ExprKind::kLiteral;
  bool lv = e.left->kind == ExprKind::kVarRef;
  bool rv = e.right->kind == ExprKind::kVarRef;
  if ((lv && rc) || (lc && rv)) {
    *op = e.op;
    return true;
  }
  return false;
}

double EstimateSelectivity(const Expr& e) {
  BinaryOp op;
  if (IsVarConstCompare(e, &op)) {
    if (op == BinaryOp::kEq) return kSelEqConst;
    if (op == BinaryOp::kNotEq) return 1.0 - kSelEqConst;
    return kSelRange;
  }
  if (e.kind == ExprKind::kCompare && e.op == BinaryOp::kEq) return kSelEqConst;
  return kSelOther;
}

struct DpEntry {
  bool valid = false;
  double cost = 0;
  double rows = 0;
  std::unique_ptr<PlanNode> node;
  bool uses_views = false;
  bool uses_indexes = false;
};

}  // namespace

std::string OptimizedPlan::Describe() const {
  std::string out = "Plan (est_cost=" + std::to_string(est_cost) +
                    ", est_rows=" + std::to_string(est_rows) + ")\n";
  if (root) out += root->Describe(1);
  for (const std::string& p : stale_paths) {
    out += "  stale (excluded): " + p + "\n";
  }
  return out;
}

Optimizer::Optimizer(const Catalog* catalog, std::string default_db)
    : catalog_(catalog), default_db_(std::move(default_db)) {}

void Optimizer::RegisterView(std::shared_ptr<ViewDefinition> view) {
  views_.push_back(std::move(view));
}

bool Optimizer::RegisterIndex(std::shared_ptr<ViewIndex> index) {
  if (!index->access_path().has_value()) return false;
  indexes_.push_back(std::move(index));
  return true;
}

Result<OptimizedPlan> Optimizer::Plan(const std::string& sql) const {
  return PlanInternal(sql, /*allow_resources=*/true);
}

Result<OptimizedPlan> Optimizer::PlanBaseline(const std::string& sql) const {
  return PlanInternal(sql, /*allow_resources=*/false);
}

namespace {

/// Collects the Sec. 6 access-path lines of a physical tree: one line per
/// ViewScan / IndexProbe, in left-to-right plan order.
void CollectAccessPaths(const PlanNode& node, std::vector<std::string>* out) {
  switch (node.kind) {
    case PlanNode::Kind::kViewScan: {
      std::string line = "view " + node.view_name + " answers {";
      for (size_t i = 0; i < node.covered_vars.size(); ++i) {
        if (i > 0) line += ", ";
        line += node.covered_vars[i];
      }
      line += "}, absorbed " + std::to_string(node.absorbed_conjuncts) +
              " predicate(s)";
      out->push_back(std::move(line));
      break;
    }
    case PlanNode::Kind::kIndexProbe:
      out->push_back(
          "index " + (node.index != nullptr ? node.index->name() : "?") +
          (node.probe_keyword.empty()
               ? " probed with key " + node.probe_key.ToString()
               : " probed with keyword '" + node.probe_keyword + "'"));
      break;
    case PlanNode::Kind::kJoin:
      if (node.left != nullptr) CollectAccessPaths(*node.left, out);
      if (node.right != nullptr) CollectAccessPaths(*node.right, out);
      break;
    case PlanNode::Kind::kTableScan:
      break;
  }
}

}  // namespace

Result<std::string> Optimizer::Explain(const std::string& sql) const {
  DV_ASSIGN_OR_RETURN(OptimizedPlan chosen, Plan(sql));
  DV_ASSIGN_OR_RETURN(OptimizedPlan baseline, PlanBaseline(sql));
  std::string out = "== chosen plan ==\n";
  out += chosen.Describe();
  out += "== access paths ==\n";
  std::vector<std::string> paths;
  if (chosen.root != nullptr) CollectAccessPaths(*chosen.root, &paths);
  if (paths.empty()) {
    out += "base tables only\n";
  } else {
    for (const std::string& p : paths) {
      out += p;
      out += '\n';
    }
  }
  out += "== baseline (no view/index access paths) ==\n";
  out += baseline.Describe();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f",
                chosen.est_cost > 0 ? baseline.est_cost / chosen.est_cost
                                    : 1.0);
  out += "est_cost ratio baseline/chosen: ";
  out += buf;
  out += '\n';
  return out;
}

Result<OptimizedPlan> Optimizer::PlanInternal(const std::string& sql,
                                              bool allow_resources) const {
  DV_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt,
                      Parser::ParseSelect(sql));
  if (stmt->union_next != nullptr) {
    return Status::Unsupported("optimizer handles single-block queries");
  }
  // One catalog version for the whole planning pass: normalization, costing,
  // usability and translation all read `snap`, and the finished plan records
  // it so Execute sees the same data even with concurrent writers.
  std::shared_ptr<const CatalogSnapshot> snap = catalog_->Snapshot();
  std::vector<std::string> stale_paths;
  DV_ASSIGN_OR_RETURN(BoundQuery bq,
                      NormalizeQuery(stmt.get(), *snap, default_db_));
  if (bq.higher_order) {
    return Status::Unsupported(
        "optimizer input must be first order (a query on the integration)");
  }
  DV_ASSIGN_OR_RETURN(QueryInfo info, AnalyzeQuery(*stmt, bq, default_db_));
  const size_t n = info.tables.size();
  if (n == 0) return Status::InvalidArgument("no tables in FROM");
  if (n > kMaxTables) {
    return Status::Unsupported("too many tables for exhaustive DP");
  }

  // Variable → table index.
  std::map<std::string, size_t> table_of_var;
  std::map<std::string, size_t> table_index_by_tuple;
  for (size_t i = 0; i < n; ++i) {
    table_index_by_tuple[ToLower(info.tuple_vars[i])] = i;
  }
  for (const auto& [var, tuple] : info.tuple_of_domain) {
    auto it = table_index_by_tuple.find(tuple);
    if (it != table_index_by_tuple.end()) table_of_var[var] = it->second;
  }
  // Every declared (attribute, domain variable) pair of each table. A query
  // may declare several variables over the same attribute (QueryInfo's
  // domain_of keeps only one); each is its own column of an access path.
  std::vector<std::vector<std::pair<std::string, std::string>>> declared(n);
  for (const FromItem& f : stmt->from_items) {
    if (f.kind != FromItemKind::kDomainVar || f.attr.is_variable) continue;
    auto it = table_index_by_tuple.find(ToLower(f.tuple));
    if (it != table_index_by_tuple.end()) {
      declared[it->second].emplace_back(ToLower(f.attr.text), f.var);
    }
  }

  // Base-table cardinalities.
  std::vector<double> base_rows(n, 1.0);
  for (size_t i = 0; i < n; ++i) {
    Result<const Table*> t =
        snap->ResolveTable(info.tables[i].db, info.tables[i].rel);
    DV_RETURN_IF_ERROR(t.status());
    base_rows[i] = std::max<double>(1.0, t.value()->num_rows());
  }

  // Statistics-aware selectivity (Sec. 6 cost model ablation: compare with
  // the System-R constants via EnableStatistics).
  StatsCache stats(snap.get());
  std::map<std::string, std::string> attr_of_var;  // var → attr (lowercased).
  for (const auto& [tuple, attrs] : info.domain_of) {
    for (const auto& [attr, var] : attrs) attr_of_var[ToLower(var)] = attr;
  }
  auto column_stats = [&](const std::string& var_lower) -> const ColumnStats* {
    if (!use_stats_) return nullptr;
    auto t = table_of_var.find(var_lower);
    auto a = attr_of_var.find(var_lower);
    if (t == table_of_var.end() || a == attr_of_var.end()) return nullptr;
    const TableStats* ts = stats.Get(info.tables[t->second]);
    if (ts == nullptr) return nullptr;
    return ts->Find(a->second);
  };
  auto estimate = [&](const Expr& e) -> double {
    double naive = EstimateSelectivity(e);
    if (!use_stats_ || e.kind != ExprKind::kCompare) return naive;
    const Expr* var_side = nullptr;
    const Expr* const_side = nullptr;
    if (e.left->kind == ExprKind::kVarRef &&
        e.right->kind == ExprKind::kLiteral) {
      var_side = e.left.get();
      const_side = e.right.get();
    } else if (e.right->kind == ExprKind::kVarRef &&
               e.left->kind == ExprKind::kLiteral) {
      var_side = e.right.get();
      const_side = e.left.get();
    }
    if (var_side != nullptr) {
      const ColumnStats* cs = column_stats(ToLower(var_side->var_name));
      if (cs == nullptr) return naive;
      auto t = table_of_var.find(ToLower(var_side->var_name));
      size_t rows = t == table_of_var.end()
                        ? 0
                        : static_cast<size_t>(base_rows[t->second]);
      BinaryOp op = e.op;
      if (var_side == e.right.get()) {
        // Rewrite `c op x` as `x op' c`.
        switch (op) {
          case BinaryOp::kLess: op = BinaryOp::kGreater; break;
          case BinaryOp::kLessEq: op = BinaryOp::kGreaterEq; break;
          case BinaryOp::kGreater: op = BinaryOp::kLess; break;
          case BinaryOp::kGreaterEq: op = BinaryOp::kLessEq; break;
          default: break;
        }
      }
      switch (op) {
        case BinaryOp::kEq:
          return EqualitySelectivity(*cs, rows);
        case BinaryOp::kNotEq:
          return 1.0 - EqualitySelectivity(*cs, rows);
        case BinaryOp::kLess:
        case BinaryOp::kLessEq:
        case BinaryOp::kGreater:
        case BinaryOp::kGreaterEq:
          return RangeSelectivity(*cs, op, const_side->literal, naive);
        default:
          return naive;
      }
    }
    if (e.op == BinaryOp::kEq && e.left->kind == ExprKind::kVarRef &&
        e.right->kind == ExprKind::kVarRef) {
      return JoinSelectivity(column_stats(ToLower(e.left->var_name)),
                             column_stats(ToLower(e.right->var_name)),
                             kSelJoinEq);
    }
    return naive;
  };

  // Conjunct analysis.
  std::vector<ConjunctInfo> conjuncts;
  for (const Expr* c : info.conds) {
    ConjunctInfo ci;
    ci.expr = c;
    std::vector<std::string> refs;
    c->CollectVarRefs(&refs);
    for (const std::string& r : refs) {
      auto it = table_of_var.find(ToLower(r));
      if (it == table_of_var.end()) {
        ci.placeable = false;
      } else {
        ci.mask |= 1u << it->second;
      }
    }
    ci.selectivity = estimate(*c);
    conjuncts.push_back(ci);
  }
  auto internal_to = [&](uint32_t smask, const ConjunctInfo& ci) {
    return ci.placeable && ci.mask != 0 && (ci.mask & ~smask) == 0;
  };

  // Needed-outside(S): variables of S referenced by the answer or by
  // conjuncts not internal to S.
  auto needed_outside = [&](uint32_t smask) {
    std::set<std::string> needed;
    auto add_if_inside = [&](const std::string& var_lower) {
      auto it = table_of_var.find(var_lower);
      if (it != table_of_var.end() && ((1u << it->second) & smask) != 0) {
        needed.insert(var_lower);
      }
    };
    for (const std::string& v : info.needed_vars) add_if_inside(v);
    for (const ConjunctInfo& ci : conjuncts) {
      if (internal_to(smask, ci)) continue;
      std::vector<std::string> refs;
      ci.expr->CollectVarRefs(&refs);
      for (const std::string& r : refs) add_if_inside(ToLower(r));
    }
    return needed;
  };

  const uint32_t full = (n == 32) ? ~0u : ((1u << n) - 1);
  std::vector<DpEntry> dp(full + 1);

  auto consider = [&](uint32_t mask, DpEntry candidate) {
    DpEntry& best = dp[mask];
    if (!best.valid || candidate.cost < best.cost) best = std::move(candidate);
  };

  // ---- Seeds: table scans. -------------------------------------------------
  for (size_t i = 0; i < n; ++i) {
    uint32_t mask = 1u << i;
    auto node = std::make_unique<PlanNode>();
    node->kind = PlanNode::Kind::kTableScan;
    node->table = info.tables[i];
    node->tuple_var = info.tuple_vars[i];
    node->outputs = declared[i];
    double rows = base_rows[i];
    for (const ConjunctInfo& ci : conjuncts) {
      if (internal_to(mask, ci)) {
        node->filters.push_back(ci.expr->Clone());
        rows *= ci.selectivity;
      }
    }
    rows = std::max(rows, 1.0);
    node->est_rows = rows;
    node->est_cost = base_rows[i];
    DpEntry e;
    e.valid = true;
    e.cost = node->est_cost;
    e.rows = rows;
    e.node = std::move(node);
    consider(mask, std::move(e));
  }

  // ---- Seeds: index probes. ------------------------------------------------
  if (allow_resources) {
    for (const std::shared_ptr<ViewIndex>& index : indexes_) {
      const IndexAccessPath& path = *index->access_path();
      // Stale fence: the index was built before the source database's last
      // commit — probing it could answer from vanished rows. Fall back to
      // base-table paths and report the exclusion.
      if (snap->DatabaseVersion(path.source.db) > index->build_version()) {
        stale_paths.push_back("index " + index->name());
        continue;
      }
      for (size_t i = 0; i < n; ++i) {
        if (!(info.tables[i] == path.source)) continue;
        uint32_t mask = 1u << i;
        auto dit = info.domain_of.find(ToLower(info.tuple_vars[i]));
        if (dit == info.domain_of.end()) continue;
        auto kit = dit->second.find(path.key_attr);
        if (kit == dit->second.end()) continue;
        const std::string key_var = ToLower(kit->second);
        // Find the probing conjunct: equality with a constant for B+-trees,
        // CONTAINS(key, 'word') for inverted indexes (the Fig. 9
        // unstructured predicate).
        const Expr* key_conjunct = nullptr;
        Value probe_key;
        std::string probe_keyword;
        for (const ConjunctInfo& ci : conjuncts) {
          if (!internal_to(mask, ci)) continue;
          const Expr* c = ci.expr;
          if (index->method() == IndexMethod::kInverted) {
            // Only HASWORD has the word semantics of the inverted index;
            // substring CONTAINS could match inside longer words and the
            // probe would miss rows.
            if (c->kind != ExprKind::kHasWord) continue;
            if (c->left->kind == ExprKind::kVarRef &&
                ToLower(c->left->var_name) == key_var &&
                c->right->kind == ExprKind::kLiteral &&
                c->right->literal.kind() == TypeKind::kString) {
              key_conjunct = c;
              probe_keyword = ToLower(c->right->literal.as_string());
            }
            continue;
          }
          if (c->kind != ExprKind::kCompare || c->op != BinaryOp::kEq) continue;
          if (c->left->kind == ExprKind::kVarRef &&
              ToLower(c->left->var_name) == key_var &&
              c->right->kind == ExprKind::kLiteral) {
            key_conjunct = c;
            probe_key = c->right->literal;
          } else if (c->right->kind == ExprKind::kVarRef &&
                     ToLower(c->right->var_name) == key_var &&
                     c->left->kind == ExprKind::kLiteral) {
            key_conjunct = c;
            probe_key = c->left->literal;
          }
        }
        if (key_conjunct == nullptr) continue;
        // An inverted-index probe returns only rows whose key contains the
        // single word; multi-word patterns would need LookupAll — skip them.
        if (!probe_keyword.empty() &&
            TokenizeWords(probe_keyword).size() != 1) {
          continue;
        }
        // All other internal conjuncts and needed-later variables must be
        // computable from the payload.
        auto node = std::make_unique<PlanNode>();
        std::set<std::string> available;  // Variable names payload supplies.
        const std::vector<std::string>& payload = path.payload_attrs;
        for (const auto& [attr, var] : declared[i]) {
          if (std::find(payload.begin(), payload.end(), attr) ==
              payload.end()) {
            continue;
          }
          node->outputs.emplace_back(attr, var);
          available.insert(ToLower(var));
        }
        bool feasible = true;
        double rows = base_rows[i] * kSelEqConst;
        for (const ConjunctInfo& ci : conjuncts) {
          if (!internal_to(mask, ci) || ci.expr == key_conjunct) continue;
          std::vector<std::string> refs;
          ci.expr->CollectVarRefs(&refs);
          for (const std::string& r : refs) {
            if (available.count(ToLower(r)) == 0) feasible = false;
          }
          if (!feasible) break;
          node->filters.push_back(ci.expr->Clone());
          rows *= ci.selectivity;
        }
        for (const std::string& v : needed_outside(mask)) {
          if (available.count(v) == 0) feasible = false;
        }
        if (!feasible) continue;
        node->kind = PlanNode::Kind::kIndexProbe;
        node->index = index.get();
        node->probe_key = std::move(probe_key);
        node->probe_keyword = std::move(probe_keyword);
        rows = std::max(rows, 1.0);
        node->est_rows = rows;
        node->est_cost = std::log2(base_rows[i] + 2.0) + rows;
        DpEntry e;
        e.valid = true;
        e.cost = node->est_cost;
        e.rows = rows;
        e.node = std::move(node);
        e.uses_indexes = true;
        consider(mask, std::move(e));
      }
    }
  }

  // ---- Seeds: materialized views. -------------------------------------------
  if (allow_resources) {
    UsabilityChecker checker(snap.get(), default_db_);
    QueryTranslator translator(snap.get(), default_db_);
    for (const auto& view : views_) {
      // Stale fence: the materialization predates a commit to one of the
      // view's source databases. Answering from it would be answering
      // against no single catalog version, so the plan falls back to base
      // tables until the maintainer (or a re-materialization) catches up.
      if (view->IsStaleAgainst(*snap)) {
        stale_paths.push_back("view " + view->DisplayName());
        continue;
      }
      // Enumerate cover sets: choose a query table for each view table.
      const auto& vtables = view->tables();
      std::vector<std::vector<size_t>> candidates(vtables.size());
      bool any_empty = false;
      for (size_t vi = 0; vi < vtables.size(); ++vi) {
        for (size_t i = 0; i < n; ++i) {
          if (info.tables[i] == vtables[vi]) candidates[vi].push_back(i);
        }
        if (candidates[vi].empty()) any_empty = true;
      }
      if (any_empty) continue;
      std::set<uint32_t> cover_masks;
      std::vector<size_t> pick(vtables.size(), 0);
      std::function<void(size_t, uint32_t)> enumerate = [&](size_t depth,
                                                            uint32_t mask) {
        if (depth == vtables.size()) {
          cover_masks.insert(mask);
          return;
        }
        for (size_t c : candidates[depth]) {
          enumerate(depth + 1, mask | (1u << c));
        }
      };
      enumerate(0, 0);

      for (uint32_t smask : cover_masks) {
        // Build the subquery Q_S.
        auto sub = std::make_unique<SelectStmt>();
        std::set<std::string> tuples_in;  // Lowercased.
        for (size_t i = 0; i < n; ++i) {
          if ((smask & (1u << i)) != 0) {
            tuples_in.insert(ToLower(info.tuple_vars[i]));
          }
        }
        for (const FromItem& f : stmt->from_items) {
          if (f.kind == FromItemKind::kTupleVar &&
              tuples_in.count(ToLower(f.var)) > 0) {
            sub->from_items.push_back(f.Clone());
          } else if (f.kind == FromItemKind::kDomainVar &&
                     tuples_in.count(ToLower(f.tuple)) > 0) {
            sub->from_items.push_back(f.Clone());
          }
        }
        std::set<std::string> outputs = needed_outside(smask);
        for (const std::string& v : outputs) {
          sub->select_list.emplace_back(Expr::MakeVarRef(v), v);
        }
        if (sub->select_list.empty()) {
          sub->select_list.emplace_back(Expr::MakeLiteral(Value::Int(1)),
                                        "one");
        }
        std::vector<std::unique_ptr<Expr>> internal;
        double residual_sel = 1.0;
        size_t internal_count = 0;
        for (const ConjunctInfo& ci : conjuncts) {
          if (internal_to(smask, ci)) {
            internal.push_back(ci.expr->Clone());
            ++internal_count;
          }
        }
        sub->where = AndChain(std::move(internal));

        // Usability: multiset unless the answer is duplicate-insensitive.
        bool relaxed = stmt->distinct;
        Result<BoundQuery> sbq = Binder::BindBranch(sub.get());
        if (!sbq.ok()) continue;
        Result<UsabilityResult> usable =
            relaxed ? checker.CheckSetUsable(*view, *sub, sbq.value())
                    : checker.CheckMultisetUsable(*view, *sub, sbq.value());
        if (!usable.ok() || !usable.value().usable) continue;

        // Translate, applying the view repeatedly to cover every table of S.
        std::unique_ptr<SelectStmt> current = sub->Clone();
        BoundQuery cbq = std::move(sbq).value();
        size_t covered = 0;
        size_t absorbed = 0;
        std::vector<std::string> covered_names;
        bool failed = false;
        while (covered < tuples_in.size()) {
          Result<UsabilityResult> u =
              relaxed ? checker.CheckSetUsable(*view, *current, cbq)
                      : checker.CheckMultisetUsable(*view, *current, cbq);
          if (!u.ok() || !u.value().usable) {
            failed = true;
            break;
          }
          Result<TranslationResult> tr =
              translator.Translate(*view, *current, cbq, u.value());
          if (!tr.ok()) {
            failed = true;
            break;
          }
          covered += tr.value().covered_tuple_vars.size();
          absorbed += tr.value().absorbed_conjuncts;
          for (const std::string& cv : tr.value().covered_tuple_vars) {
            covered_names.push_back(cv);
          }
          current = std::move(tr.value().query);
          Result<BoundQuery> rb = Binder::BindBranch(current.get());
          if (!rb.ok()) {
            failed = true;
            break;
          }
          cbq = std::move(rb).value();
        }
        if (failed || covered < tuples_in.size()) continue;

        // Estimate: scanning the materialization, residual filters applied.
        double mat_size = 1.0;
        {
          // Resolve the view's materialized location.
          std::string dbname = view->db_term().empty()
                                   ? default_db_
                                   : view->db_term().text;
          double total = 0;
          if (view->db_term().is_variable) {
            for (const std::string& db : snap->DatabaseNames()) {
              Result<const Database*> d = snap->GetDatabase(db);
              if (!d.ok()) continue;
              for (const std::string& rel : d.value()->TableNames()) {
                total += d.value()->GetTable(rel).value()->num_rows();
              }
            }
          } else {
            Result<const Database*> d = snap->GetDatabase(dbname);
            if (d.ok()) {
              if (view->rel_term().is_variable) {
                for (const std::string& rel : d.value()->TableNames()) {
                  total += d.value()->GetTable(rel).value()->num_rows();
                }
              } else if (d.value()->HasTable(view->rel_term().text)) {
                total +=
                    d.value()->GetTable(view->rel_term().text).value()->num_rows();
              }
            }
          }
          mat_size = std::max(total, 1.0);
        }
        for (const ConjunctInfo& ci : conjuncts) {
          if (internal_to(smask, ci)) residual_sel *= ci.selectivity;
        }
        // Conjuncts the view absorbed do not re-filter, but using the full
        // internal selectivity keeps the estimate conservative and simple.
        double rows = std::max(mat_size * residual_sel, 1.0);

        auto node = std::make_unique<PlanNode>();
        node->kind = PlanNode::Kind::kViewScan;
        node->view_name = view->DisplayName();
        node->rewritten = std::move(current);
        node->covered_vars = covered_names;
        node->absorbed_conjuncts = absorbed;
        node->est_rows = rows;
        node->est_cost = mat_size;
        DpEntry e;
        e.valid = true;
        e.cost = node->est_cost;
        e.rows = rows;
        e.node = std::move(node);
        e.uses_views = true;
        (void)internal_count;
        consider(smask, std::move(e));
      }
    }
  }

  // ---- DP over joins. --------------------------------------------------------
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // Singletons seeded already.
    for (uint32_t sub = (mask - 1) & mask; sub != 0;
         sub = (sub - 1) & mask) {
      uint32_t other = mask & ~sub;
      if (sub > other) continue;  // Each split once.
      if (!dp[sub].valid || !dp[other].valid) continue;
      // Conjuncts newly applicable at this join.
      std::vector<std::unique_ptr<Expr>> conds;
      double sel = 1.0;
      for (const ConjunctInfo& ci : conjuncts) {
        if (!internal_to(mask, ci)) continue;
        if (internal_to(sub, ci) || internal_to(other, ci)) continue;
        sel *= ci.selectivity;
        conds.push_back(ci.expr->Clone());
      }
      double rows = dp[sub].rows * dp[other].rows * sel;
      rows = std::max(rows, 1.0);
      double cost =
          dp[sub].cost + dp[other].cost + dp[sub].rows + dp[other].rows + rows;
      if (dp[mask].valid && cost >= dp[mask].cost) continue;
      auto node = std::make_unique<PlanNode>();
      node->kind = PlanNode::Kind::kJoin;
      node->left = dp[sub].node->Clone();
      node->right = dp[other].node->Clone();
      node->join_conds = std::move(conds);
      node->est_rows = rows;
      node->est_cost = cost;
      DpEntry e;
      e.valid = true;
      e.cost = cost;
      e.rows = rows;
      e.node = std::move(node);
      e.uses_views = dp[sub].uses_views || dp[other].uses_views;
      e.uses_indexes = dp[sub].uses_indexes || dp[other].uses_indexes;
      consider(mask, std::move(e));
    }
  }

  if (!dp[full].valid) {
    return Status::Internal("dynamic programming failed to cover the query");
  }

  OptimizedPlan plan;
  plan.root = std::move(dp[full].node);
  plan.est_cost = dp[full].cost;
  plan.est_rows = dp[full].rows;
  plan.uses_views = dp[full].uses_views;
  plan.uses_indexes = dp[full].uses_indexes;
  plan.snapshot = snap;
  plan.stale_paths = std::move(stale_paths);

  // The final statement: original answer shape over the plan's output, plus
  // any conjuncts the plan could not place (constant-only or unplaceable).
  auto final_stmt = std::make_unique<SelectStmt>();
  final_stmt->distinct = stmt->distinct;
  for (const SelectItem& item : stmt->select_list) {
    final_stmt->select_list.push_back(item.Clone());
  }
  for (const auto& g : stmt->group_by) final_stmt->group_by.push_back(g->Clone());
  if (stmt->having) final_stmt->having = stmt->having->Clone();
  for (const OrderItem& o : stmt->order_by) {
    final_stmt->order_by.push_back(o.Clone());
  }
  std::vector<std::unique_ptr<Expr>> top;
  for (const ConjunctInfo& ci : conjuncts) {
    if (!ci.placeable || ci.mask == 0) top.push_back(ci.expr->Clone());
  }
  final_stmt->where = AndChain(std::move(top));
  FromItem scan;
  scan.kind = FromItemKind::kTupleVar;
  scan.rel = NameTerm("plan_rows");
  scan.var = "plan_rows";
  final_stmt->from_items.push_back(std::move(scan));
  plan.stmt = std::move(final_stmt);
  return plan;
}

Result<Table> Optimizer::Execute(const OptimizedPlan& plan) const {
  QueryEngine engine(catalog_, default_db_);
  // Execution reads the version the plan was costed against, and compiles
  // each expression of the plan (shipped subqueries included) once.
  QueryContext qc;
  qc.PinSnapshot(plan.snapshot);
  qc.set_expr_programs(std::make_shared<ExprProgramCache>());
  DV_ASSIGN_OR_RETURN(Table rows, plan.root->Execute(&engine, &qc));
  Catalog scratch;
  DV_RETURN_IF_ERROR(scratch.PutTable("sc", "plan_rows", std::move(rows)));
  QueryEngine top(&scratch, "sc");
  std::unique_ptr<SelectStmt> stmt = plan.stmt->Clone();
  return top.Execute(stmt.get());
}

}  // namespace dynview
