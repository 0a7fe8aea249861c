// Tests for the condition-implication prover used by Thm. 5.2 / Alg. 5.1.

#include <gtest/gtest.h>

#include <functional>

#include "core/implication.h"
#include "core/view_definition.h"
#include "sql/parser.h"

namespace dynview {
namespace {

/// Parses a WHERE-clause expression by wrapping it in a dummy query.
std::unique_ptr<Expr> ParsePred(const std::string& where) {
  auto s = Parser::ParseSelect("select x from t where " + where);
  EXPECT_TRUE(s.ok()) << where << ": " << s.status().ToString();
  return std::move(s.value()->where);
}

/// True if `given` (an AND-chain) implies `pred`.
bool Implies(const std::string& given, const std::string& pred) {
  auto g = ParsePred(given);
  auto p = ParsePred(pred);
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(g.get(), &conjuncts);
  ConditionAnalyzer analyzer(conjuncts);
  return analyzer.Implies(*p);
}

TEST(ImplicationTest, Reflexivity) {
  EXPECT_TRUE(Implies("a = 1", "a = a"));
  EXPECT_TRUE(Implies("a = 1", "a <= a"));
  EXPECT_FALSE(Implies("a = 1", "a < a"));
}

TEST(ImplicationTest, DirectMatch) {
  EXPECT_TRUE(Implies("a = b and c > 5", "a = b"));
  EXPECT_TRUE(Implies("a = b and c > 5", "c > 5"));
  EXPECT_FALSE(Implies("a = b", "a = c"));
}

TEST(ImplicationTest, FlippedOrientation) {
  EXPECT_TRUE(Implies("a = b", "b = a"));
  EXPECT_TRUE(Implies("a < b", "b > a"));
  EXPECT_TRUE(Implies("a <= b", "b >= a"));
}

TEST(ImplicationTest, EqualityTransitivity) {
  EXPECT_TRUE(Implies("a = b and b = c", "a = c"));
  EXPECT_TRUE(Implies("a = b and b = c and c = d", "d = a"));
  EXPECT_FALSE(Implies("a = b and c = d", "a = c"));
}

TEST(ImplicationTest, ConstantPropagation) {
  EXPECT_TRUE(Implies("a = 5 and b = 5", "a = b"));
  EXPECT_TRUE(Implies("a = 5 and b = 7", "a <> b"));
  EXPECT_TRUE(Implies("a = 5", "a > 4"));
  EXPECT_TRUE(Implies("a = 5", "a >= 5"));
  EXPECT_FALSE(Implies("a = 5", "a > 5"));
}

TEST(ImplicationTest, OrderTransitivity) {
  EXPECT_TRUE(Implies("a < b and b < c", "a < c"));
  EXPECT_TRUE(Implies("a <= b and b < c", "a < c"));
  EXPECT_TRUE(Implies("a <= b and b <= c", "a <= c"));
  EXPECT_FALSE(Implies("a <= b and b <= c", "a < c"));
}

TEST(ImplicationTest, OrderThroughConstants) {
  // The Thm. 5.1 workhorse: a stronger range implies a weaker one.
  EXPECT_TRUE(Implies("p > 200", "p > 100"));
  EXPECT_TRUE(Implies("p > 200", "p >= 200"));
  EXPECT_TRUE(Implies("p >= 200", "p > 100"));
  EXPECT_FALSE(Implies("p > 100", "p > 200"));
  EXPECT_TRUE(Implies("p < 50", "p <= 100"));
}

TEST(ImplicationTest, OrderThroughEqualities) {
  EXPECT_TRUE(Implies("a = b and b > 10", "a > 10"));
  EXPECT_TRUE(Implies("a = b and a < c and c <= d", "b < d"));
}

TEST(ImplicationTest, DateConstants) {
  EXPECT_TRUE(Implies("d > DATE '1998-01-01'", "d > DATE '1990-01-01'"));
  EXPECT_FALSE(Implies("d > DATE '1990-01-01'", "d > DATE '1998-01-01'"));
}

TEST(ImplicationTest, Disequality) {
  EXPECT_TRUE(Implies("a <> b", "a <> b"));
  EXPECT_TRUE(Implies("a <> b", "b <> a"));
  EXPECT_TRUE(Implies("a < b", "a <> b"));
  EXPECT_TRUE(Implies("a = 1 and b = 2", "a <> b"));
  EXPECT_FALSE(Implies("a <= b", "a <> b"));
}

TEST(ImplicationTest, StringConstants) {
  EXPECT_TRUE(Implies("e = 'nyse'", "e = 'nyse'"));
  EXPECT_FALSE(Implies("e = 'nyse'", "e = 'amex'"));
  EXPECT_TRUE(Implies("e = 'nyse'", "e <> 'amex'"));
}

TEST(ImplicationTest, UnsatisfiableImpliesEverything) {
  EXPECT_TRUE(Implies("a = 1 and a = 2", "zzz = 42"));
  EXPECT_TRUE(Implies("a < b and b < a", "zzz = 42"));
}

TEST(ImplicationTest, OutsideTheoryIsSyntacticOnly) {
  EXPECT_TRUE(Implies("name like '%sofitel%'", "name like '%sofitel%'"));
  EXPECT_FALSE(Implies("name like '%sofitel%'", "name like '%hilton%'"));
  // Arithmetic comparisons match only syntactically.
  EXPECT_TRUE(Implies("d1 = d2 + 1", "d1 = d2 + 1"));
  EXPECT_FALSE(Implies("d1 = d2 + 1", "d1 = d2"));
}

TEST(ImplicationTest, EqualVariablesEnumeration) {
  auto g = ParsePred("a = b and b = c and d = 5");
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(g.get(), &conjuncts);
  ConditionAnalyzer analyzer(conjuncts);
  auto eq = analyzer.EqualVariables("a");
  EXPECT_EQ(eq.size(), 3u);
  EXPECT_TRUE(analyzer.ImpliesEquality("a", "c"));
  EXPECT_FALSE(analyzer.ImpliesEquality("a", "d"));
  EXPECT_TRUE(analyzer.ImpliesEquality("x", "x"));  // Unseen but reflexive.
}

TEST(ImplicationTest, MixedNumericKinds) {
  EXPECT_TRUE(Implies("a = 1", "a < 2.5"));
  EXPECT_TRUE(Implies("a > 1.5", "a > 1"));
}

/// `where` parsed with every literal tagged as the query's slot 0, 1, ...
/// in pre-order (what ShapeStatement does to a whole statement).
std::unique_ptr<Expr> Tagged(const std::string& where) {
  std::unique_ptr<Expr> e = ParsePred(where);
  int next = 0;
  std::function<void(Expr*)> tag = [&](Expr* n) {
    if (n->kind == ExprKind::kLiteral) n->literal_slot = next++;
    if (n->left) tag(n->left.get());
    if (n->right) tag(n->right.get());
  };
  tag(e.get());
  return e;
}

TEST(LiteralGuardTest, ReplaysEveryKindOfAnswer) {
  // Query conjuncts hold the slots; the questions are a view condition and
  // variable equalities, as in a usability check.
  std::unique_ptr<Expr> where = Tagged("a > 10 and b = 4 and c = 4");
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(where.get(), &conjuncts);
  std::unique_ptr<Expr> view_cond = ParsePred("a > 5");
  LiteralGuard guard;
  {
    ConditionAnalyzer recorded(conjuncts, &guard);
    EXPECT_TRUE(recorded.Implies(*view_cond));
    EXPECT_TRUE(recorded.ImpliesEquality("b", "c"));
    EXPECT_EQ(recorded.EqualVariables("b"),
              (std::vector<std::string>{"b", "c"}));
    EXPECT_FALSE(recorded.unsatisfiable());
  }
  ASSERT_TRUE(guard.complete());
  auto ints = [](int a, int b, int c) {
    return std::vector<Value>{Value::Int(a), Value::Int(b), Value::Int(c)};
  };
  EXPECT_TRUE(guard.Holds(ints(10, 4, 4)));
  EXPECT_TRUE(guard.Holds(ints(7, 9, 9)));
  EXPECT_FALSE(guard.Holds(ints(2, 9, 9)));  // a > 2 does not imply a > 5.
  EXPECT_FALSE(guard.Holds(ints(7, 8, 9)));  // b and c no longer equal.
  // Unsatisfiability replays too: crossed bounds stay crossed or not.
  std::unique_ptr<Expr> unsat = Tagged("a > 10 and a < 3");
  std::vector<const Expr*> bounds;
  CollectConjuncts(unsat.get(), &bounds);
  LiteralGuard unsat_guard;
  {
    ConditionAnalyzer recorded(bounds, &unsat_guard);
    EXPECT_TRUE(recorded.unsatisfiable());
  }
  EXPECT_TRUE(unsat_guard.Holds({Value::Int(8), Value::Int(1)}));
  EXPECT_FALSE(unsat_guard.Holds({Value::Int(1), Value::Int(8)}));
}

TEST(LiteralGuardTest, AnswersThatReadNoLiteralAreNotRecorded) {
  // Neither the conjuncts nor the question hold a query literal: the answer
  // cannot change with the query's values, so nothing is replayed.
  std::unique_ptr<Expr> given = ParsePred("a > 5");
  std::vector<const Expr*> conjuncts = {given.get()};
  std::unique_ptr<Expr> question = ParsePred("a > 1");
  LiteralGuard guard;
  {
    ConditionAnalyzer recorded(conjuncts, &guard);
    EXPECT_TRUE(recorded.Implies(*question));
  }
  EXPECT_TRUE(guard.Holds({}));
  // A tagged question against the same conjuncts is recorded.
  std::unique_ptr<Expr> tagged = Tagged("a > 1");
  {
    ConditionAnalyzer recorded(conjuncts, &guard);
    EXPECT_TRUE(recorded.Implies(*tagged));
  }
  EXPECT_TRUE(guard.Holds({Value::Int(3)}));
  EXPECT_FALSE(guard.Holds({Value::Int(6)}));
}

}  // namespace
}  // namespace dynview
