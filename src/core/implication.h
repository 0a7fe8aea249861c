#ifndef DYNVIEW_CORE_IMPLICATION_H_
#define DYNVIEW_CORE_IMPLICATION_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"

namespace dynview {

class ConditionAnalyzer;

/// The answers one Alg. 5.1 probe took from ConditionAnalyzers built with
/// this guard attached: every Implies, ImpliesEquality, EqualVariables and
/// unsatisfiable() answer whose analyzer conjuncts or question hold a query
/// literal (Expr::literal_slot >= 0), deduplicated. The probe reads literal
/// values through nothing else — unsatisfiability included, which every
/// Implies answer reflects — so when Holds(values) replays every answer
/// equal, a probe with `values` in the slots takes the same path. The plan
/// cache's shape tier keeps a guard per rewriting, shared read-only across
/// threads: Holds rebuilds its analyzers (Find path-compresses).
class LiteralGuard {
 public:
  /// True when every recorded answer comes out the same with `values[i]`
  /// in slot i.
  bool Holds(const std::vector<Value>& values) const;

  /// False once the recording outgrew its bound (a probe that backtracked
  /// through many variable mappings); such a guard is not worth keeping.
  bool complete() const { return !overflow_; }

 private:
  friend class ConditionAnalyzer;

  enum class Ask { kImplies, kImpliesEquality, kEqualVariables, kUnsat };
  struct Question {
    Ask ask = Ask::kImplies;
    std::unique_ptr<Expr> pred;  // kImplies.
    std::string var_a, var_b;    // kImpliesEquality, kEqualVariables.
    std::string key;             // Dedup identity within the analyzer.
    bool answer = false;
    std::vector<std::string> equal;  // kEqualVariables.
  };
  struct Analyzer {
    std::string key;  // Conjunct renderings and slot positions.
    std::vector<std::unique_ptr<Expr>> conjuncts;
    std::vector<Question> questions;
  };

  /// The index of the recorded analyzer keyed `key`, added (with clones of
  /// `conjuncts`) on first use; -1 once the bound is reached.
  int AnalyzerFor(const std::string& key,
                  const std::vector<const Expr*>& conjuncts);
  /// Appends `question` to analyzer `index` unless it is already there.
  void Record(int index, Question question);

  std::vector<Analyzer> analyzers_;
  size_t num_questions_ = 0;
  bool overflow_ = false;
};

/// Decision procedure for implication between conjunctions of built-in
/// predicates over variables and constants — the `Conds(Q) ⊨ p` tests in
/// Thm. 5.2's conditions 2 and 3 and in Alg. 5.1's residual computation.
///
/// The theory covered is conjunctions of `x op y` and `x op c` with
/// op ∈ {=, <>, <, <=, >, >=}: an equality closure (union-find) augmented
/// with an order graph over equivalence classes and constants. Strictness is
/// tracked on edges, so `x < y ∧ y <= z ⊨ x < z` and `x <= 5 ∧ 5 < y ⊨
/// x <> y` are proved. Predicates outside the theory (LIKE, CONTAINS, OR,
/// IS NULL, arithmetic) are handled conservatively: they are implied only by
/// a syntactically identical conjunct.
class ConditionAnalyzer {
 public:
  /// Builds the closure of `conjuncts`. Conjuncts outside the comparison
  /// theory participate only in syntactic matching. With `guard`, every
  /// answer that depends on a query literal is recorded there; `conjuncts`
  /// must then outlive the analyzer.
  explicit ConditionAnalyzer(const std::vector<const Expr*>& conjuncts,
                             LiteralGuard* guard = nullptr);

  /// True if the conjunction implies `pred`.
  bool Implies(const Expr& pred) const;

  /// True if the conjunction implies the equality of two variables.
  bool ImpliesEquality(const std::string& var_a, const std::string& var_b) const;

  /// True if the closure derived a contradiction (everything is implied).
  bool unsatisfiable() const;

  /// All variables provably equal to `var` under the closure (including
  /// itself), in deterministic order. Used by Thm. 5.2 condition 2's
  /// "∃ B ∈ Out(V) with Conds(Q) ⊨ A = φ(B)".
  std::vector<std::string> EqualVariables(const std::string& var) const;

 private:
  // Node ids: variables and constants share one id space.
  int NodeOf(const std::string& var_lower);
  int NodeOfConst(const Value& v);
  int Find(int x) const;
  void Union(int a, int b);
  void AddEdge(int from, int to, bool strict);  // from <= to (or < if strict).
  bool Reachable(int from, int to, bool* any_strict) const;
  bool Decide(const Expr& pred) const;  // Implies, unrecorded.

  /// Records an answer in guard_ when it can depend on a query literal:
  /// the conjuncts or `pred` (kImplies) hold one.
  void Note(LiteralGuard::Question question, const Expr* pred) const;

  /// Decomposes a conjunct into (term, op, term) over the theory; returns
  /// false if outside it.
  struct Term {
    bool is_const = false;
    std::string var;  // Lowercased.
    Value constant;
  };
  static bool Decompose(const Expr& e, Term* lhs, BinaryOp* op, Term* rhs);
  std::optional<int> TermNode(const Term& t) const;

  /// Proves `var op c` from the variable's derived constant bounds (the
  /// predicate's constant need not appear among the given conjuncts).
  bool ProveVarConst(int var_node, BinaryOp op, const Value& c) const;

  mutable std::vector<int> parent_;
  std::vector<std::vector<std::pair<int, bool>>> edges_;  // (to, strict).
  std::map<std::string, int> var_node_;    // Lowercased var → node.
  std::map<std::string, int> const_node_;  // Value rendering → node.
  std::vector<std::optional<Value>> const_of_node_;
  std::vector<std::string> syntactic_;  // Renderings of all conjuncts.
  std::vector<std::pair<int, int>> disequalities_;
  bool unsat_ = false;

  LiteralGuard* guard_ = nullptr;
  std::vector<const Expr*> conjuncts_;  // Kept only with a guard.
  bool has_slots_ = false;              // A conjunct holds a query literal.
  mutable int recorded_ = -1;  // This analyzer's index in guard_.
};

}  // namespace dynview

#endif  // DYNVIEW_CORE_IMPLICATION_H_
