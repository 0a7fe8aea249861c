#include "sql/ast.h"

#include <functional>

namespace dynview {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNotEq: return "<>";
    case BinaryOp::kLess: return "<";
    case BinaryOp::kLessEq: return "<=";
    case BinaryOp::kGreater: return ">";
    case BinaryOp::kGreaterEq: return ">=";
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
  }
  return "?";
}

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
    case AggFunc::kCountStar:
      return "COUNT";
    case AggFunc::kSum: return "SUM";
    case AggFunc::kAvg: return "AVG";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
  }
  return "?";
}

bool IsDuplicateInsensitive(AggFunc f) {
  return f == AggFunc::kMin || f == AggFunc::kMax;
}

std::unique_ptr<Expr> Expr::MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

std::unique_ptr<Expr> Expr::MakeVarRef(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kVarRef;
  e->var_name = std::move(name);
  return e;
}

std::unique_ptr<Expr> Expr::MakeColumnRef(std::string qualifier,
                                          NameTerm column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->qualifier = std::move(qualifier);
  e->column = std::move(column);
  return e;
}

std::unique_ptr<Expr> Expr::MakeBinary(ExprKind kind, BinaryOp op,
                                       std::unique_ptr<Expr> l,
                                       std::unique_ptr<Expr> r) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->op = op;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

std::unique_ptr<Expr> Expr::MakeCompare(BinaryOp op, std::unique_ptr<Expr> l,
                                        std::unique_ptr<Expr> r) {
  return MakeBinary(ExprKind::kCompare, op, std::move(l), std::move(r));
}

std::unique_ptr<Expr> Expr::MakeNot(std::unique_ptr<Expr> e) {
  auto out = std::make_unique<Expr>();
  out->kind = ExprKind::kNot;
  out->left = std::move(e);
  return out;
}

std::unique_ptr<Expr> Expr::MakeIsNull(std::unique_ptr<Expr> e, bool negated) {
  auto out = std::make_unique<Expr>();
  out->kind = ExprKind::kIsNull;
  out->left = std::move(e);
  out->negated = negated;
  return out;
}

std::unique_ptr<Expr> Expr::MakeAgg(AggFunc f, std::unique_ptr<Expr> arg,
                                    bool distinct) {
  auto out = std::make_unique<Expr>();
  out->kind = ExprKind::kAgg;
  out->agg_func = f;
  out->left = std::move(arg);
  out->agg_distinct = distinct;
  return out;
}

std::unique_ptr<Expr> Expr::MakeStar() {
  auto out = std::make_unique<Expr>();
  out->kind = ExprKind::kStar;
  return out;
}

std::unique_ptr<Expr> Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->literal = literal;
  e->param_index = param_index;
  e->literal_slot = literal_slot;
  e->var_name = var_name;
  e->qualifier = qualifier;
  e->column = column;
  e->op = op;
  e->negated = negated;
  e->agg_func = agg_func;
  e->agg_distinct = agg_distinct;
  if (left) e->left = left->Clone();
  if (right) e->right = right->Clone();
  return e;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      if (param_index >= 0) return "?" + std::to_string(param_index + 1);
      // A bare 1998-01-02 would re-parse as integer subtraction; the DATE
      // prefix keeps literal renderings lossless through the lexer.
      if (literal.kind() == TypeKind::kDate) {
        return "DATE '" + literal.ToString() + "'";
      }
      return literal.ToString();
    case ExprKind::kVarRef:
      return var_name;
    case ExprKind::kColumnRef:
      return qualifier + "." + column.text;
    case ExprKind::kCompare:
    case ExprKind::kArith:
      return left->ToString() + " " + BinaryOpName(op) + " " +
             right->ToString();
    case ExprKind::kLogic: {
      // Parenthesize OR under AND for unambiguous reading.
      std::string l = left->kind == ExprKind::kLogic && left->op != op
                          ? "(" + left->ToString() + ")"
                          : left->ToString();
      std::string r = right->kind == ExprKind::kLogic && right->op != op
                          ? "(" + right->ToString() + ")"
                          : right->ToString();
      return l + " " + BinaryOpName(op) + " " + r;
    }
    case ExprKind::kNot:
      return "NOT (" + left->ToString() + ")";
    case ExprKind::kLike:
      return left->ToString() + " LIKE " + right->ToString();
    case ExprKind::kContains:
      return "CONTAINS(" + left->ToString() + ", " + right->ToString() + ")";
    case ExprKind::kHasWord:
      return "HASWORD(" + left->ToString() + ", " + right->ToString() + ")";
    case ExprKind::kIsNull:
      return left->ToString() + (negated ? " IS NOT NULL" : " IS NULL");
    case ExprKind::kAgg: {
      std::string inner =
          agg_func == AggFunc::kCountStar ? "*" : left->ToString();
      if (agg_distinct) inner = "DISTINCT " + inner;
      return std::string(AggFuncName(agg_func)) + "(" + inner + ")";
    }
    case ExprKind::kStar:
      return "*";
  }
  return "?";
}

bool Expr::ContainsAggregate() const {
  if (kind == ExprKind::kAgg) return true;
  if (left && left->ContainsAggregate()) return true;
  if (right && right->ContainsAggregate()) return true;
  return false;
}

void Expr::CollectVarRefs(std::vector<std::string>* out) const {
  if (kind == ExprKind::kVarRef) out->push_back(var_name);
  if (left) left->CollectVarRefs(out);
  if (right) right->CollectVarRefs(out);
}

std::string FromItem::ToString() const {
  switch (kind) {
    case FromItemKind::kDatabaseVar:
      return "-> " + var;
    case FromItemKind::kRelationVar:
      return db.text + " -> " + var;
    case FromItemKind::kAttributeVar:
      return db.text + "::" + rel.text + " -> " + var;
    case FromItemKind::kTupleVar: {
      std::string prefix = db.empty() ? rel.text : db.text + "::" + rel.text;
      return prefix + " " + var;
    }
    case FromItemKind::kDomainVar:
      return tuple + "." + attr.text + " " + var;
  }
  return "?";
}

SelectItem SelectItem::Clone() const {
  SelectItem out;
  out.expr = expr ? expr->Clone() : nullptr;
  out.alias = alias;
  return out;
}

OrderItem OrderItem::Clone() const {
  OrderItem out;
  out.expr = expr ? expr->Clone() : nullptr;
  out.descending = descending;
  return out;
}

std::unique_ptr<SelectStmt> SelectStmt::Clone() const {
  auto out = std::make_unique<SelectStmt>();
  out->distinct = distinct;
  for (const auto& item : select_list) out->select_list.push_back(item.Clone());
  for (const auto& f : from_items) out->from_items.push_back(f.Clone());
  if (where) out->where = where->Clone();
  for (const auto& g : group_by) out->group_by.push_back(g->Clone());
  if (having) out->having = having->Clone();
  for (const auto& o : order_by) out->order_by.push_back(o.Clone());
  out->limit = limit;
  if (union_next) out->union_next = union_next->Clone();
  out->union_all = union_all;
  return out;
}

std::string SelectStmt::ToString() const {
  std::string out = "SELECT ";
  if (distinct) out += "DISTINCT ";
  for (size_t i = 0; i < select_list.size(); ++i) {
    if (i > 0) out += ", ";
    out += select_list[i].expr->ToString();
    if (!select_list[i].alias.empty()) out += " AS " + select_list[i].alias;
  }
  out += " FROM ";
  for (size_t i = 0; i < from_items.size(); ++i) {
    if (i > 0) out += ", ";
    out += from_items[i].ToString();
  }
  if (where) out += " WHERE " + where->ToString();
  if (!group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by[i]->ToString();
    }
  }
  if (having) out += " HAVING " + having->ToString();
  if (!order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += order_by[i].expr->ToString();
      if (order_by[i].descending) out += " DESC";
    }
  }
  if (limit >= 0) out += " LIMIT " + std::to_string(limit);
  if (union_next) {
    out += union_all ? " UNION ALL " : " UNION ";
    out += union_next->ToString();
  }
  return out;
}

namespace {

void ForEachExpr(Expr* e, const std::function<void(Expr*)>& fn) {
  if (e == nullptr) return;
  fn(e);
  ForEachExpr(e->left.get(), fn);
  ForEachExpr(e->right.get(), fn);
}

}  // namespace

void ForEachExpr(SelectStmt* stmt, const std::function<void(Expr*)>& fn) {
  for (SelectStmt* s = stmt; s != nullptr; s = s->union_next.get()) {
    for (SelectItem& item : s->select_list) ForEachExpr(item.expr.get(), fn);
    ForEachExpr(s->where.get(), fn);
    for (auto& g : s->group_by) ForEachExpr(g.get(), fn);
    ForEachExpr(s->having.get(), fn);
    for (OrderItem& o : s->order_by) ForEachExpr(o.expr.get(), fn);
  }
}

void SubstituteLiteralSlots(Expr* e, const std::vector<Value>& values) {
  ForEachExpr(e, [&](Expr* n) {
    if (n->kind == ExprKind::kLiteral && n->literal_slot >= 0 &&
        static_cast<size_t>(n->literal_slot) < values.size()) {
      n->literal = values[n->literal_slot];
    }
  });
}

void SubstituteLiteralSlots(SelectStmt* stmt,
                            const std::vector<Value>& values) {
  ForEachExpr(stmt, [&](Expr* e) {
    if (e->kind == ExprKind::kLiteral) SubstituteLiteralSlots(e, values);
  });
}

void CollectConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kLogic && e->op == BinaryOp::kAnd) {
    CollectConjuncts(e->left.get(), out);
    CollectConjuncts(e->right.get(), out);
    return;
  }
  out->push_back(e);
}

std::unique_ptr<Expr> AndChain(std::vector<std::unique_ptr<Expr>> conds) {
  std::unique_ptr<Expr> acc;
  for (auto& c : conds) {
    if (!acc) {
      acc = std::move(c);
    } else {
      acc = Expr::MakeBinary(ExprKind::kLogic, BinaryOp::kAnd, std::move(acc),
                             std::move(c));
    }
  }
  return acc;
}

int CountParameters(const SelectStmt& stmt) {
  int max_index = -1;
  ForEachExpr(const_cast<SelectStmt*>(&stmt), [&](Expr* e) {
    if (e->kind == ExprKind::kLiteral && e->param_index > max_index) {
      max_index = e->param_index;
    }
  });
  return max_index + 1;
}

Status SubstituteParameters(SelectStmt* stmt,
                            const std::vector<Value>& params) {
  Status status = Status::OK();
  ForEachExpr(stmt, [&](Expr* e) {
    if (e->kind != ExprKind::kLiteral || e->param_index < 0) return;
    if (static_cast<size_t>(e->param_index) >= params.size()) {
      if (status.ok()) {
        status = Status::InvalidArgument(
            "parameter ?" + std::to_string(e->param_index + 1) +
            " has no bound value (" + std::to_string(params.size()) +
            " provided)");
      }
      return;
    }
    e->literal = params[e->param_index];
    e->param_index = -1;
  });
  return status;
}

bool SelectStmt::IsHigherOrder() const {
  for (const FromItem& f : from_items) {
    if (f.kind == FromItemKind::kDatabaseVar ||
        f.kind == FromItemKind::kRelationVar ||
        f.kind == FromItemKind::kAttributeVar) {
      return true;
    }
  }
  if (union_next) return union_next->IsHigherOrder();
  return false;
}

std::unique_ptr<CreateViewStmt> CreateViewStmt::Clone() const {
  auto out = std::make_unique<CreateViewStmt>();
  out->db = db;
  out->name = name;
  out->attrs = attrs;
  out->query = query ? query->Clone() : nullptr;
  return out;
}

std::string CreateViewStmt::ToString() const {
  std::string out = "CREATE VIEW ";
  if (!db.empty()) out += db.text + "::";
  out += name.text + " (";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out += ", ";
    out += attrs[i].text;
  }
  out += ") AS " + (query ? query->ToString() : "");
  return out;
}

std::unique_ptr<CreateIndexStmt> CreateIndexStmt::Clone() const {
  auto out = std::make_unique<CreateIndexStmt>();
  out->name = name;
  out->method = method;
  for (const auto& g : given) out->given.push_back(g->Clone());
  out->query = query ? query->Clone() : nullptr;
  return out;
}

std::string CreateIndexStmt::ToString() const {
  std::string out = "CREATE INDEX " + name + " AS ";
  out += method == IndexMethod::kBtree ? "BTREE" : "INVERTED";
  out += " BY GIVEN ";
  for (size_t i = 0; i < given.size(); ++i) {
    if (i > 0) out += ", ";
    out += given[i]->ToString();
  }
  out += " " + (query ? query->ToString() : "");
  return out;
}

}  // namespace dynview
