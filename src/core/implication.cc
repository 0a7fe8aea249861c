#include "core/implication.h"

#include <deque>

#include "common/str_util.h"

namespace dynview {

namespace {

/// Canonical rendering used for syntactic matching (comparisons match in
/// either orientation).
std::string FlipRendering(const Expr& e) {
  if (e.kind != ExprKind::kCompare) return e.ToString();
  BinaryOp flipped;
  switch (e.op) {
    case BinaryOp::kEq: flipped = BinaryOp::kEq; break;
    case BinaryOp::kNotEq: flipped = BinaryOp::kNotEq; break;
    case BinaryOp::kLess: flipped = BinaryOp::kGreater; break;
    case BinaryOp::kLessEq: flipped = BinaryOp::kGreaterEq; break;
    case BinaryOp::kGreater: flipped = BinaryOp::kLess; break;
    case BinaryOp::kGreaterEq: flipped = BinaryOp::kLessEq; break;
    default: return e.ToString();
  }
  return e.right->ToString() + " " + BinaryOpName(flipped) + " " +
         e.left->ToString();
}

/// Appends the literal_slot of every literal in `e`, pre-order ("-" when
/// unset); true if any is set.
bool AppendSlots(const Expr& e, std::string* out) {
  bool any = false;
  if (e.kind == ExprKind::kLiteral) {
    any = e.literal_slot >= 0;
    *out += any ? std::to_string(e.literal_slot) : "-";
    *out += ',';
  }
  if (e.left != nullptr && AppendSlots(*e.left, out)) any = true;
  if (e.right != nullptr && AppendSlots(*e.right, out)) any = true;
  return any;
}

/// Bounds a guard's recording: a probe backtracking through many variable
/// mappings is not worth replaying.
constexpr size_t kMaxGuardQuestions = 256;

}  // namespace

int LiteralGuard::AnalyzerFor(const std::string& key,
                              const std::vector<const Expr*>& conjuncts) {
  for (size_t i = 0; i < analyzers_.size(); ++i) {
    if (analyzers_[i].key == key) return static_cast<int>(i);
  }
  if (overflow_) return -1;
  Analyzer& a = analyzers_.emplace_back();
  a.key = key;
  for (const Expr* c : conjuncts) a.conjuncts.push_back(c->Clone());
  return static_cast<int>(analyzers_.size() - 1);
}

void LiteralGuard::Record(int index, Question question) {
  std::vector<Question>& questions = analyzers_[index].questions;
  for (const Question& q : questions) {
    if (q.key == question.key) return;  // Same question, same answer.
  }
  if (++num_questions_ > kMaxGuardQuestions) {
    overflow_ = true;
    return;
  }
  questions.push_back(std::move(question));
}

bool LiteralGuard::Holds(const std::vector<Value>& values) const {
  for (const Analyzer& a : analyzers_) {
    std::vector<std::unique_ptr<Expr>> owned;
    std::vector<const Expr*> conjuncts;
    for (const auto& c : a.conjuncts) {
      owned.push_back(c->Clone());
      SubstituteLiteralSlots(owned.back().get(), values);
      conjuncts.push_back(owned.back().get());
    }
    const ConditionAnalyzer replay(conjuncts);
    for (const Question& q : a.questions) {
      bool same = true;
      switch (q.ask) {
        case Ask::kImplies: {
          std::unique_ptr<Expr> pred = q.pred->Clone();
          SubstituteLiteralSlots(pred.get(), values);
          same = replay.Implies(*pred) == q.answer;
          break;
        }
        case Ask::kImpliesEquality:
          same = replay.ImpliesEquality(q.var_a, q.var_b) == q.answer;
          break;
        case Ask::kEqualVariables:
          same = replay.EqualVariables(q.var_a) == q.equal;
          break;
        case Ask::kUnsat:
          same = replay.unsatisfiable() == q.answer;
          break;
      }
      if (!same) return false;
    }
  }
  return true;
}

void ConditionAnalyzer::Note(LiteralGuard::Question question,
                             const Expr* pred) const {
  std::string slots;
  const bool pred_slots = pred != nullptr && AppendSlots(*pred, &slots);
  if (!has_slots_ && !pred_slots) return;  // The answer reads no literal.
  if (recorded_ < 0) {
    std::string key;
    for (size_t i = 0; i < conjuncts_.size(); ++i) {
      key += syntactic_[2 * i] + "|";
      AppendSlots(*conjuncts_[i], &key);
      key += ";";
    }
    recorded_ = guard_->AnalyzerFor(key, conjuncts_);
    if (recorded_ < 0) return;
  }
  question.key = std::to_string(static_cast<int>(question.ask)) + ":" +
                 question.var_a + "=" + question.var_b;
  if (pred != nullptr) {
    question.key += pred->ToString() + "|" + slots;
    question.pred = pred->Clone();
  }
  guard_->Record(recorded_, std::move(question));
}

bool ConditionAnalyzer::Decompose(const Expr& e, Term* lhs, BinaryOp* op,
                                  Term* rhs) {
  if (e.kind != ExprKind::kCompare) return false;
  auto term = [](const Expr& side, Term* out) {
    if (side.kind == ExprKind::kVarRef) {
      out->is_const = false;
      out->var = ToLower(side.var_name);
      return true;
    }
    if (side.kind == ExprKind::kLiteral && !side.literal.is_null()) {
      out->is_const = true;
      out->constant = side.literal;
      return true;
    }
    return false;
  };
  if (!term(*e.left, lhs) || !term(*e.right, rhs)) return false;
  *op = e.op;
  return true;
}

int ConditionAnalyzer::NodeOf(const std::string& var_lower) {
  auto it = var_node_.find(var_lower);
  if (it != var_node_.end()) return it->second;
  int id = static_cast<int>(parent_.size());
  parent_.push_back(id);
  edges_.emplace_back();
  const_of_node_.push_back(std::nullopt);
  var_node_[var_lower] = id;
  return id;
}

int ConditionAnalyzer::NodeOfConst(const Value& v) {
  std::string key = v.ToString();
  auto it = const_node_.find(key);
  if (it != const_node_.end()) return it->second;
  int id = static_cast<int>(parent_.size());
  parent_.push_back(id);
  edges_.emplace_back();
  const_of_node_.push_back(v);
  const_node_[key] = id;
  return id;
}

int ConditionAnalyzer::Find(int x) const {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];
    x = parent_[x];
  }
  return x;
}

void ConditionAnalyzer::Union(int a, int b) {
  a = Find(a);
  b = Find(b);
  if (a != b) parent_[a] = b;
}

void ConditionAnalyzer::AddEdge(int from, int to, bool strict) {
  edges_[from].emplace_back(to, strict);
}

ConditionAnalyzer::ConditionAnalyzer(const std::vector<const Expr*>& conjuncts,
                                     LiteralGuard* guard)
    : guard_(guard) {
  if (guard_ != nullptr) {
    conjuncts_ = conjuncts;
    std::string slots;
    for (const Expr* c : conjuncts) has_slots_ |= AppendSlots(*c, &slots);
  }
  std::vector<std::pair<int, int>> disequalities;
  for (const Expr* c : conjuncts) {
    syntactic_.push_back(c->ToString());
    syntactic_.push_back(FlipRendering(*c));
    Term l, r;
    BinaryOp op;
    if (!Decompose(*c, &l, &op, &r)) continue;
    int ln = l.is_const ? NodeOfConst(l.constant) : NodeOf(l.var);
    int rn = r.is_const ? NodeOfConst(r.constant) : NodeOf(r.var);
    switch (op) {
      case BinaryOp::kEq: Union(ln, rn); break;
      case BinaryOp::kLess: AddEdge(ln, rn, true); break;
      case BinaryOp::kLessEq: AddEdge(ln, rn, false); break;
      case BinaryOp::kGreater: AddEdge(rn, ln, true); break;
      case BinaryOp::kGreaterEq: AddEdge(rn, ln, false); break;
      case BinaryOp::kNotEq: disequalities.emplace_back(ln, rn); break;
      default: break;
    }
  }
  // Order edges among comparable constants.
  std::vector<int> const_ids;
  for (const auto& [key, id] : const_node_) const_ids.push_back(id);
  for (size_t i = 0; i < const_ids.size(); ++i) {
    for (size_t j = i + 1; j < const_ids.size(); ++j) {
      const Value& a = *const_of_node_[const_ids[i]];
      const Value& b = *const_of_node_[const_ids[j]];
      int cmp = 0;
      Result<TriBool> known = Value::Compare(a, b, &cmp);
      if (!known.ok() || known.value() != TriBool::kTrue) continue;
      if (cmp == 0) {
        Union(const_ids[i], const_ids[j]);
      } else if (cmp < 0) {
        AddEdge(const_ids[i], const_ids[j], true);
      } else {
        AddEdge(const_ids[j], const_ids[i], true);
      }
    }
  }
  // Contradictions: distinct constants united, strict cycles, violated
  // disequalities.
  for (size_t i = 0; i < const_ids.size(); ++i) {
    for (size_t j = i + 1; j < const_ids.size(); ++j) {
      if (Find(const_ids[i]) == Find(const_ids[j])) {
        const Value& a = *const_of_node_[const_ids[i]];
        const Value& b = *const_of_node_[const_ids[j]];
        if (!a.GroupEquals(b)) unsat_ = true;
      }
    }
  }
  for (size_t n = 0; n < parent_.size(); ++n) {
    bool strict = false;
    if (Reachable(static_cast<int>(n), static_cast<int>(n), &strict) &&
        strict) {
      unsat_ = true;
    }
  }
  for (const auto& [a, b] : disequalities) {
    if (Find(a) == Find(b)) unsat_ = true;
  }
  disequalities_ = std::move(disequalities);
}

bool ConditionAnalyzer::Reachable(int from, int to, bool* any_strict) const {
  // BFS over (node, seen-strict-edge) states; edges resolve through the
  // union-find so equalities collapse nodes.
  from = Find(from);
  to = Find(to);
  *any_strict = false;
  if (from == to) {
    // Trivial path of length zero (non-strict).
    // Continue searching for a strict cycle/path below.
  }
  std::vector<uint8_t> visited(parent_.size() * 2, 0);
  std::deque<std::pair<int, bool>> queue;
  queue.emplace_back(from, false);
  visited[from * 2 + 0] = 1;
  bool found_plain = (from == to);
  while (!queue.empty()) {
    auto [n, strict] = queue.front();
    queue.pop_front();
    if (n == to) {
      if (strict) {
        *any_strict = true;
        return true;  // Strict implies plain.
      }
      found_plain = true;
    }
    // Explore all edges whose source collapses to n.
    for (size_t raw = 0; raw < edges_.size(); ++raw) {
      if (Find(static_cast<int>(raw)) != n) continue;
      for (const auto& [raw_to, edge_strict] : edges_[raw]) {
        int t = Find(raw_to);
        bool s = strict || edge_strict;
        if (!visited[t * 2 + (s ? 1 : 0)]) {
          visited[t * 2 + (s ? 1 : 0)] = 1;
          queue.emplace_back(t, s);
        }
      }
    }
  }
  return found_plain;
}

bool ConditionAnalyzer::ProveVarConst(int var_node, BinaryOp op,
                                      const Value& c) const {
  // Scan every constant node for bounds on the variable's class.
  auto cmp_const = [&](const Value& a, int* out) {
    Result<TriBool> known = Value::Compare(a, c, out);
    return known.ok() && known.value() == TriBool::kTrue;
  };
  for (const auto& [key, id] : const_node_) {
    const Value& k = *const_of_node_[id];
    int kc = 0;
    if (!cmp_const(k, &kc)) continue;  // Incomparable with c.
    bool strict = false;
    // Same equivalence class: var = k.
    if (Find(id) == Find(var_node)) {
      switch (op) {
        case BinaryOp::kEq:
          if (kc == 0) return true;
          break;
        case BinaryOp::kNotEq:
          if (kc != 0) return true;
          break;
        case BinaryOp::kLess:
          if (kc < 0) return true;
          break;
        case BinaryOp::kLessEq:
          if (kc <= 0) return true;
          break;
        case BinaryOp::kGreater:
          if (kc > 0) return true;
          break;
        case BinaryOp::kGreaterEq:
          if (kc >= 0) return true;
          break;
        default:
          break;
      }
      continue;
    }
    // Upper bound: var ≤ k (strict ⇒ var < k).
    if (Reachable(var_node, id, &strict)) {
      bool var_lt_c = kc < 0 || (kc == 0 && strict);
      bool var_le_c = kc <= 0;
      if (op == BinaryOp::kLess && var_lt_c) return true;
      if (op == BinaryOp::kLessEq && var_le_c) return true;
      if (op == BinaryOp::kNotEq && var_lt_c) return true;
    }
    strict = false;
    // Lower bound: k ≤ var (strict ⇒ k < var).
    if (Reachable(id, var_node, &strict)) {
      bool var_gt_c = kc > 0 || (kc == 0 && strict);
      bool var_ge_c = kc >= 0;
      if (op == BinaryOp::kGreater && var_gt_c) return true;
      if (op == BinaryOp::kGreaterEq && var_ge_c) return true;
      if (op == BinaryOp::kNotEq && var_gt_c) return true;
    }
  }
  return false;
}

std::optional<int> ConditionAnalyzer::TermNode(const Term& t) const {
  if (t.is_const) {
    auto it = const_node_.find(t.constant.ToString());
    if (it == const_node_.end()) return std::nullopt;
    return it->second;
  }
  auto it = var_node_.find(t.var);
  if (it == var_node_.end()) return std::nullopt;
  return it->second;
}

bool ConditionAnalyzer::Implies(const Expr& pred) const {
  const bool implied = Decide(pred);
  if (guard_ != nullptr) {
    LiteralGuard::Question q;
    q.ask = LiteralGuard::Ask::kImplies;
    q.answer = implied;
    Note(std::move(q), &pred);
  }
  return implied;
}

bool ConditionAnalyzer::unsatisfiable() const {
  if (guard_ != nullptr) {
    LiteralGuard::Question q;
    q.ask = LiteralGuard::Ask::kUnsat;
    q.answer = unsat_;
    Note(std::move(q), nullptr);
  }
  return unsat_;
}

bool ConditionAnalyzer::Decide(const Expr& pred) const {
  if (unsat_) return true;
  // Syntactic match (covers predicates outside the comparison theory).
  std::string rendering = pred.ToString();
  std::string flipped = FlipRendering(pred);
  for (const std::string& s : syntactic_) {
    if (s == rendering || s == flipped) return true;
  }
  Term l, r;
  BinaryOp op;
  if (!Decompose(pred, &l, &op, &r)) return false;
  // Constant-constant: decide directly.
  if (l.is_const && r.is_const) {
    int cmp = 0;
    Result<TriBool> known = Value::Compare(l.constant, r.constant, &cmp);
    if (!known.ok() || known.value() != TriBool::kTrue) return false;
    switch (op) {
      case BinaryOp::kEq: return cmp == 0;
      case BinaryOp::kNotEq: return cmp != 0;
      case BinaryOp::kLess: return cmp < 0;
      case BinaryOp::kLessEq: return cmp <= 0;
      case BinaryOp::kGreater: return cmp > 0;
      case BinaryOp::kGreaterEq: return cmp >= 0;
      default: return false;
    }
  }
  // Reflexivity.
  if (!l.is_const && !r.is_const && l.var == r.var) {
    return op == BinaryOp::kEq || op == BinaryOp::kLessEq ||
           op == BinaryOp::kGreaterEq;
  }
  // Variable vs constant: reason through the variable's derived bounds, so
  // the predicate's constant need not appear in the given conjuncts
  // (`p > 200 ⊨ p > 100`).
  if (l.is_const != r.is_const) {
    const Term& var_term = l.is_const ? r : l;
    const Value& c = l.is_const ? l.constant : r.constant;
    BinaryOp vop = op;
    if (l.is_const) {
      // Rewrite `c op x` as `x op' c`.
      switch (op) {
        case BinaryOp::kLess: vop = BinaryOp::kGreater; break;
        case BinaryOp::kLessEq: vop = BinaryOp::kGreaterEq; break;
        case BinaryOp::kGreater: vop = BinaryOp::kLess; break;
        case BinaryOp::kGreaterEq: vop = BinaryOp::kLessEq; break;
        default: break;
      }
    }
    std::optional<int> vn = TermNode(var_term);
    if (!vn.has_value()) return false;
    return ProveVarConst(*vn, vop, c);
  }
  std::optional<int> ln = TermNode(l);
  std::optional<int> rn = TermNode(r);
  if (!ln.has_value() || !rn.has_value()) return false;
  bool strict = false;
  switch (op) {
    case BinaryOp::kEq:
      return Find(*ln) == Find(*rn);
    case BinaryOp::kLessEq:
      if (Find(*ln) == Find(*rn)) return true;
      return Reachable(*ln, *rn, &strict);
    case BinaryOp::kGreaterEq:
      if (Find(*ln) == Find(*rn)) return true;
      return Reachable(*rn, *ln, &strict);
    case BinaryOp::kLess:
      return Reachable(*ln, *rn, &strict) && strict;
    case BinaryOp::kGreater:
      return Reachable(*rn, *ln, &strict) && strict;
    case BinaryOp::kNotEq: {
      // Recorded disequality.
      for (const auto& [a, b] : disequalities_) {
        if ((Find(a) == Find(*ln) && Find(b) == Find(*rn)) ||
            (Find(a) == Find(*rn) && Find(b) == Find(*ln))) {
          return true;
        }
      }
      // Strict order either way.
      if (Reachable(*ln, *rn, &strict) && strict) return true;
      if (Reachable(*rn, *ln, &strict) && strict) return true;
      // Distinct constants in the two classes.
      std::optional<Value> ca, cb;
      for (const auto& [key, id] : const_node_) {
        if (Find(id) == Find(*ln)) ca = *const_of_node_[id];
        if (Find(id) == Find(*rn)) cb = *const_of_node_[id];
      }
      if (ca.has_value() && cb.has_value() && !ca->GroupEquals(*cb)) {
        return true;
      }
      return false;
    }
    default:
      return false;
  }
}

bool ConditionAnalyzer::ImpliesEquality(const std::string& var_a,
                                        const std::string& var_b) const {
  const std::string a = ToLower(var_a), b = ToLower(var_b);
  auto ia = var_node_.find(a);
  auto ib = var_node_.find(b);
  const bool implied =
      unsat_ || a == b ||
      (ia != var_node_.end() && ib != var_node_.end() &&
       Find(ia->second) == Find(ib->second));
  if (guard_ != nullptr) {
    LiteralGuard::Question q;
    q.ask = LiteralGuard::Ask::kImpliesEquality;
    q.var_a = a;
    q.var_b = b;
    q.answer = implied;
    Note(std::move(q), nullptr);
  }
  return implied;
}

std::vector<std::string> ConditionAnalyzer::EqualVariables(
    const std::string& var) const {
  std::string key = ToLower(var);
  std::vector<std::string> out;
  auto it = var_node_.find(key);
  if (it == var_node_.end()) {
    out.push_back(key);
  } else {
    int rep = Find(it->second);
    for (const auto& [name, id] : var_node_) {
      if (Find(id) == rep) out.push_back(name);
    }
  }
  if (guard_ != nullptr) {
    LiteralGuard::Question q;
    q.ask = LiteralGuard::Ask::kEqualVariables;
    q.var_a = key;
    q.equal = out;
    Note(std::move(q), nullptr);
  }
  return out;
}

}  // namespace dynview
