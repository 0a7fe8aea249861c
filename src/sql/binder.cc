#include "sql/binder.h"

#include "common/str_util.h"

namespace dynview {

const char* VarClassName(VarClass cls) {
  switch (cls) {
    case VarClass::kDatabase: return "database";
    case VarClass::kRelation: return "relation";
    case VarClass::kAttribute: return "attribute";
    case VarClass::kTuple: return "tuple";
    case VarClass::kDomain: return "domain";
  }
  return "?";
}

bool IsSchemaVarClass(VarClass cls) {
  return cls == VarClass::kDatabase || cls == VarClass::kRelation ||
         cls == VarClass::kAttribute;
}

const BoundVariable* BoundQuery::Find(const std::string& name) const {
  auto it = variables.find(ToLower(name));
  if (it == variables.end()) return nullptr;
  return &it->second;
}

namespace {

Status Declare(BoundQuery* bq, const std::string& name, VarClass cls,
               size_t from_index) {
  std::string key = ToLower(name);
  if (bq->variables.count(key) > 0) {
    return Status::BindError("variable '" + name + "' declared twice");
  }
  bq->variables[key] = BoundVariable{name, cls, from_index};
  if (IsSchemaVarClass(cls)) bq->higher_order = true;
  return Status::OK();
}

/// Resolves a label-position NameTerm with class-directed scoping: the
/// identifier denotes a declared variable only when that variable's class
/// fits the position (an attribute position binds only attribute variables,
/// etc.); otherwise it is a constant label. This prevents, e.g., a domain
/// variable named `date` from capturing the attribute label `date` in a
/// later `T.date D` declaration.
Status ResolveNameTerm(const BoundQuery& bq, NameTerm* term,
                       VarClass expected, const char* context) {
  (void)context;
  const BoundVariable* v = bq.Find(term->text);
  term->is_variable = (v != nullptr && v->cls == expected);
  return Status::OK();
}

/// Binds expression identifiers. Unresolved bare VarRefs are permitted (they
/// are plain-SQL column names resolved at evaluation time against the tuple
/// variables in scope); ColumnRef qualifiers must name a tuple variable (a
/// relation-name shorthand is rewritten to the unique tuple variable over
/// that relation).
Status BindExpr(const BoundQuery& bq, const SelectStmt& stmt, Expr* e) {
  if (e == nullptr) return Status::OK();
  switch (e->kind) {
    case ExprKind::kVarRef:
      // Declared variables of any class may appear as values (schema
      // variables evaluate to their label as a string — the heart of
      // SchemaSQL). Undeclared names stay as bare column references.
      return Status::OK();
    case ExprKind::kColumnRef: {
      const BoundVariable* q = bq.Find(e->qualifier);
      if (q == nullptr) {
        // Relation-name shorthand: find the unique tuple variable ranging
        // over a relation with this constant name.
        const FromItem* match = nullptr;
        int count = 0;
        for (const FromItem& f : stmt.from_items) {
          if (f.kind == FromItemKind::kTupleVar && !f.rel.is_variable &&
              EqualsIgnoreCase(f.rel.text, e->qualifier)) {
            match = &f;
            ++count;
          }
        }
        if (count == 1) {
          e->qualifier = match->var;
        } else if (count == 0) {
          return Status::BindError("unknown tuple variable or relation '" +
                                   e->qualifier + "'");
        } else {
          return Status::BindError("ambiguous relation shorthand '" +
                                   e->qualifier + "'");
        }
      } else if (q->cls != VarClass::kTuple) {
        return Status::BindError("'" + e->qualifier +
                                 "' qualifies a column reference but is a " +
                                 VarClassName(q->cls) + " variable");
      }
      // The column label may itself be an attribute variable (e.g. T.A).
      const BoundVariable* a = bq.Find(e->column.text);
      if (a != nullptr && a->cls == VarClass::kAttribute) {
        e->column.is_variable = true;
      }
      return Status::OK();
    }
    default:
      DV_RETURN_IF_ERROR(BindExpr(bq, stmt, e->left.get()));
      DV_RETURN_IF_ERROR(BindExpr(bq, stmt, e->right.get()));
      return Status::OK();
  }
}

Result<BoundQuery> BindSelectOne(SelectStmt* stmt) {
  BoundQuery bq;
  // Pass 1: FROM items in declaration order.
  for (size_t i = 0; i < stmt->from_items.size(); ++i) {
    FromItem& item = stmt->from_items[i];
    switch (item.kind) {
      case FromItemKind::kDatabaseVar:
        DV_RETURN_IF_ERROR(Declare(&bq, item.var, VarClass::kDatabase, i));
        break;
      case FromItemKind::kRelationVar:
        DV_RETURN_IF_ERROR(ResolveNameTerm(bq, &item.db, VarClass::kDatabase,
                                           "a relation-variable declaration"));
        DV_RETURN_IF_ERROR(Declare(&bq, item.var, VarClass::kRelation, i));
        break;
      case FromItemKind::kAttributeVar:
        DV_RETURN_IF_ERROR(ResolveNameTerm(bq, &item.db, VarClass::kDatabase,
                                           "an attribute-variable declaration"));
        DV_RETURN_IF_ERROR(ResolveNameTerm(bq, &item.rel, VarClass::kRelation,
                                           "an attribute-variable declaration"));
        DV_RETURN_IF_ERROR(Declare(&bq, item.var, VarClass::kAttribute, i));
        break;
      case FromItemKind::kTupleVar:
        DV_RETURN_IF_ERROR(ResolveNameTerm(bq, &item.db, VarClass::kDatabase,
                                           "a tuple-variable declaration"));
        DV_RETURN_IF_ERROR(ResolveNameTerm(bq, &item.rel, VarClass::kRelation,
                                           "a tuple-variable declaration"));
        DV_RETURN_IF_ERROR(Declare(&bq, item.var, VarClass::kTuple, i));
        break;
      case FromItemKind::kDomainVar: {
        const BoundVariable* t = bq.Find(item.tuple);
        if (t == nullptr) {
          // Relation-name shorthand (e.g. `hotelwords.attribute A` in
          // Fig. 9): rewrite to the unique tuple variable over the relation.
          const FromItem* match = nullptr;
          int count = 0;
          for (size_t j = 0; j < i; ++j) {
            const FromItem& f = stmt->from_items[j];
            if (f.kind == FromItemKind::kTupleVar && !f.rel.is_variable &&
                EqualsIgnoreCase(f.rel.text, item.tuple)) {
              match = &f;
              ++count;
            }
          }
          if (count == 1) {
            item.tuple = match->var;
          } else {
            return Status::BindError(
                "domain variable '" + item.var +
                "' projects unknown or ambiguous tuple variable '" +
                item.tuple + "'");
          }
        } else if (t->cls != VarClass::kTuple) {
          return Status::BindError("domain variable '" + item.var +
                                   "' projects '" + item.tuple +
                                   "', which is a " + VarClassName(t->cls) +
                                   " variable, not a tuple variable");
        }
        DV_RETURN_IF_ERROR(ResolveNameTerm(bq, &item.attr, VarClass::kAttribute,
                                           "a domain-variable declaration"));
        DV_RETURN_IF_ERROR(Declare(&bq, item.var, VarClass::kDomain, i));
        break;
      }
    }
  }
  // Pass 2: expressions.
  for (SelectItem& s : stmt->select_list) {
    DV_RETURN_IF_ERROR(BindExpr(bq, *stmt, s.expr.get()));
  }
  DV_RETURN_IF_ERROR(BindExpr(bq, *stmt, stmt->where.get()));
  for (auto& g : stmt->group_by) {
    DV_RETURN_IF_ERROR(BindExpr(bq, *stmt, g.get()));
  }
  DV_RETURN_IF_ERROR(BindExpr(bq, *stmt, stmt->having.get()));
  for (OrderItem& o : stmt->order_by) {
    DV_RETURN_IF_ERROR(BindExpr(bq, *stmt, o.expr.get()));
  }
  return bq;
}

}  // namespace

Result<BoundQuery> Binder::BindSelect(SelectStmt* stmt) {
  DV_ASSIGN_OR_RETURN(BoundQuery first, BindSelectOne(stmt));
  // Bind every UNION branch in its own scope.
  SelectStmt* branch = stmt->union_next.get();
  while (branch != nullptr) {
    DV_ASSIGN_OR_RETURN(BoundQuery ignored, BindSelectOne(branch));
    (void)ignored;
    branch = branch->union_next.get();
  }
  return first;
}

Result<BoundQuery> Binder::BindBranch(SelectStmt* stmt) {
  return BindSelectOne(stmt);
}

Result<BoundView> Binder::BindView(CreateViewStmt* stmt) {
  BoundView bv;
  DV_ASSIGN_OR_RETURN(bv.body, BindSelect(stmt->query.get()));

  // Resolve header labels against the body's variables. Any string-valued
  // variable (domain or schema variable) may serve as a label generator;
  // tuple variables may not.
  auto resolve_label = [&](NameTerm* term) -> Status {
    const BoundVariable* v = bv.body.Find(term->text);
    if (v == nullptr) {
      term->is_variable = false;
      return Status::OK();
    }
    if (v->cls == VarClass::kTuple) {
      return Status::BindError("tuple variable '" + term->text +
                               "' cannot appear in a view output schema");
    }
    term->is_variable = true;
    return Status::OK();
  };
  if (!stmt->db.empty()) {
    DV_RETURN_IF_ERROR(resolve_label(&stmt->db));
    bv.db_is_variable = stmt->db.is_variable;
  }
  DV_RETURN_IF_ERROR(resolve_label(&stmt->name));
  bv.name_is_variable = stmt->name.is_variable;
  bv.attr_is_variable.resize(stmt->attrs.size(), false);
  for (size_t i = 0; i < stmt->attrs.size(); ++i) {
    DV_RETURN_IF_ERROR(resolve_label(&stmt->attrs[i]));
    bv.attr_is_variable[i] = stmt->attrs[i].is_variable;
  }

  bool header_dynamic = bv.db_is_variable || bv.name_is_variable;
  for (bool b : bv.attr_is_variable) header_dynamic = header_dynamic || b;

  // Def. 3.1: a dynamic view has a data-dependent output schema and a body
  // using only tuple and domain variables.
  if (bv.body.higher_order) {
    bv.view_class = ViewClass::kHigherOrder;
  } else if (header_dynamic) {
    bv.view_class = ViewClass::kDynamic;
  } else {
    bv.view_class = ViewClass::kFirstOrder;
  }
  return bv;
}

Result<BoundQuery> Binder::BindIndex(CreateIndexStmt* stmt) {
  DV_ASSIGN_OR_RETURN(BoundQuery bq, BindSelect(stmt->query.get()));
  for (auto& g : stmt->given) {
    DV_RETURN_IF_ERROR(BindExpr(bq, *stmt->query, g.get()));
  }
  return bq;
}

}  // namespace dynview
