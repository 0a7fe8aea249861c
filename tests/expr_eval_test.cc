// Unit tests for expression evaluation: bindings, SQL three-valued logic,
// arithmetic (including date arithmetic), LIKE/CONTAINS, CanEvaluate. Every
// case runs through both evaluators — the reference tree walk and the
// compiled program — and requires the same value or the same full status.

#include <gtest/gtest.h>

#include "engine/expr_compile.h"
#include "engine/expr_eval.h"
#include "reference_eval.h"
#include "sql/parser.h"

namespace dynview {
namespace {

/// The reference walk's value for `expr`, after checking that the compiled
/// program produces the identical value or status.
Result<Value> EvalBoth(const Expr& expr, const Row& row,
                       const ColumnBindings& b) {
  Result<Value> ref = EvaluateExpr(expr, row, b);
  Result<Value> compiled =
      CompiledExpr::Compile(expr, b, /*as_predicate=*/false)->EvalValue(row);
  EXPECT_EQ(RenderOutcome(ref), RenderOutcome(compiled)) << expr.ToString();
  return ref;
}

/// Predicate counterpart of EvalBoth.
Result<TriBool> PredBoth(const Expr& expr, const Row& row,
                         const ColumnBindings& b) {
  Result<TriBool> ref = EvaluatePredicate(expr, row, b);
  Result<TriBool> compiled =
      CompiledExpr::Compile(expr, b, /*as_predicate=*/true)->EvalPredicate(row);
  EXPECT_EQ(RenderOutcome(ref), RenderOutcome(compiled)) << expr.ToString();
  return ref;
}

/// Evaluates `expr_sql` against a one-row context with columns a=1, b=2.5,
/// s='sofitel', n=NULL, d=DATE 1998-01-02.
class ExprEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bindings_.AddNamed("a", 0);
    bindings_.AddNamed("b", 1);
    bindings_.AddNamed("s", 2);
    bindings_.AddNamed("n", 3);
    bindings_.AddNamed("d", 4);
    bindings_.AddQualified("T", "price", 0);
    row_ = {Value::Int(1), Value::Double(2.5), Value::String("sofitel"),
            Value::Null(), Value::MakeDate(Date::Parse("1998-01-02").value())};
  }

  std::unique_ptr<Expr> Parse(const std::string& e) {
    auto s = Parser::ParseSelect("select x from t where " + e);
    EXPECT_TRUE(s.ok()) << e << ": " << s.status().ToString();
    return std::move(s.value()->where);
  }

  std::unique_ptr<Expr> ParseValue(const std::string& e) {
    auto s = Parser::ParseSelect("select " + e + " from t");
    EXPECT_TRUE(s.ok()) << e << ": " << s.status().ToString();
    return std::move(s.value()->select_list[0].expr);
  }

  Value Eval(const std::string& e) {
    auto expr = ParseValue(e);
    auto r = EvalBoth(*expr, row_, bindings_);
    EXPECT_TRUE(r.ok()) << e << ": " << r.status().ToString();
    return r.ok() ? r.value() : Value::Null();
  }

  TriBool Pred(const std::string& e) {
    auto expr = Parse(e);
    auto r = PredBoth(*expr, row_, bindings_);
    EXPECT_TRUE(r.ok()) << e << ": " << r.status().ToString();
    return r.ok() ? r.value() : TriBool::kUnknown;
  }

  ColumnBindings bindings_;
  Row row_;
};

TEST_F(ExprEvalTest, NamedAndQualifiedLookup) {
  EXPECT_EQ(Eval("a").as_int(), 1);
  EXPECT_EQ(Eval("T.price").as_int(), 1);
  EXPECT_DOUBLE_EQ(Eval("b").as_double(), 2.5);
}

TEST_F(ExprEvalTest, UnresolvedNamesError) {
  auto expr = ParseValue("zzz");
  EXPECT_FALSE(EvalBoth(*expr, row_, bindings_).ok());
  auto col = ParseValue("T.nosuch");
  EXPECT_FALSE(EvalBoth(*col, row_, bindings_).ok());
}

TEST_F(ExprEvalTest, AmbiguousBareNameError) {
  ColumnBindings b;
  b.AddQualified("T1", "x", 0);
  b.AddQualified("T2", "x", 1);
  auto expr = ParseValue("x");
  Row row = {Value::Int(1), Value::Int(2)};
  auto r = EvalBoth(*expr, row, b);
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST_F(ExprEvalTest, IntegerAndDoubleArithmetic) {
  EXPECT_EQ(Eval("a + 2").as_int(), 3);
  EXPECT_EQ(Eval("7 / 2").as_int(), 3);  // Integer division.
  EXPECT_DOUBLE_EQ(Eval("b * 2").as_double(), 5.0);
  EXPECT_DOUBLE_EQ(Eval("a + b").as_double(), 3.5);
  EXPECT_EQ(Eval("-a").as_int(), -1);
}

TEST_F(ExprEvalTest, DivisionByZeroErrors) {
  auto expr = ParseValue("a / 0");
  EXPECT_EQ(EvalBoth(*expr, row_, bindings_).status().code(),
            StatusCode::kEvalError);
}

TEST_F(ExprEvalTest, DateArithmetic) {
  Value v = Eval("d + 1");
  EXPECT_EQ(v.as_date().ToString(), "1998-01-03");
  EXPECT_EQ(Eval("d - 1").as_date().ToString(), "1998-01-01");
  EXPECT_EQ(Eval("d - d").as_int(), 0);
  EXPECT_EQ(Pred("d = DATE '1998-01-01' + 1"), TriBool::kTrue);
}

TEST_F(ExprEvalTest, NullPropagatesThroughArithmetic) {
  EXPECT_TRUE(Eval("n + 1").is_null());
  EXPECT_TRUE(Eval("a + n").is_null());
}

TEST_F(ExprEvalTest, StringConcatenation) {
  EXPECT_EQ(Eval("s + '!'").as_string(), "sofitel!");
}

TEST_F(ExprEvalTest, ThreeValuedComparisons) {
  EXPECT_EQ(Pred("a = 1"), TriBool::kTrue);
  EXPECT_EQ(Pred("a > 1"), TriBool::kFalse);
  EXPECT_EQ(Pred("n = 1"), TriBool::kUnknown);
  EXPECT_EQ(Pred("n = n"), TriBool::kUnknown);  // NULL never equals NULL.
  EXPECT_EQ(Pred("a < b"), TriBool::kTrue);     // Cross numeric kinds.
}

TEST_F(ExprEvalTest, LogicShortCircuitAndTriLogic) {
  EXPECT_EQ(Pred("a = 1 and b > 2"), TriBool::kTrue);
  EXPECT_EQ(Pred("a = 2 and n = 1"), TriBool::kFalse);  // False dominates.
  EXPECT_EQ(Pred("a = 1 or n = 1"), TriBool::kTrue);    // True dominates.
  EXPECT_EQ(Pred("a = 2 or n = 1"), TriBool::kUnknown);
  EXPECT_EQ(Pred("not (n = 1)"), TriBool::kUnknown);
  EXPECT_EQ(Pred("not (a = 2)"), TriBool::kTrue);
}

TEST_F(ExprEvalTest, IsNullPredicates) {
  EXPECT_EQ(Pred("n is null"), TriBool::kTrue);
  EXPECT_EQ(Pred("a is null"), TriBool::kFalse);
  EXPECT_EQ(Pred("n is not null"), TriBool::kFalse);
  EXPECT_EQ(Pred("a is not null"), TriBool::kTrue);
}

TEST_F(ExprEvalTest, LikeAndContains) {
  EXPECT_EQ(Pred("s like 'sofi%'"), TriBool::kTrue);
  EXPECT_EQ(Pred("s like '%tel'"), TriBool::kTrue);
  EXPECT_EQ(Pred("s like 'x%'"), TriBool::kFalse);
  EXPECT_EQ(Pred("n like 'x'"), TriBool::kUnknown);
  EXPECT_EQ(Pred("contains(s, 'FIT')"), TriBool::kTrue);  // Case-insensitive.
  EXPECT_EQ(Pred("contains(s, 'xyz')"), TriBool::kFalse);
  EXPECT_EQ(Pred("contains(a, '1')"), TriBool::kTrue);  // Label form.
}

TEST_F(ExprEvalTest, TypeErrorsSurface) {
  auto cmp = Parse("s > a");
  EXPECT_EQ(PredBoth(*cmp, row_, bindings_).status().code(),
            StatusCode::kTypeError);
  auto arith = ParseValue("s * 2");
  EXPECT_EQ(EvalBoth(*arith, row_, bindings_).status().code(),
            StatusCode::kTypeError);
}

TEST_F(ExprEvalTest, CanEvaluateChecksBindings) {
  EXPECT_TRUE(CanEvaluate(*ParseValue("a + b"), bindings_));
  EXPECT_FALSE(CanEvaluate(*ParseValue("a + zzz"), bindings_));
  EXPECT_TRUE(CanEvaluate(*ParseValue("T.price"), bindings_));
  EXPECT_FALSE(CanEvaluate(*ParseValue("T.nosuch"), bindings_));
  EXPECT_TRUE(CanEvaluate(*ParseValue("42"), bindings_));
}

TEST_F(ExprEvalTest, MergeShiftedOffsetsIndexes) {
  ColumnBindings left;
  left.AddNamed("x", 0);
  ColumnBindings right;
  right.AddNamed("y", 0);
  right.AddQualified("T", "c", 1);
  left.MergeShifted(right, 1);
  EXPECT_EQ(left.LookupBare("x"), 0);
  EXPECT_EQ(left.LookupBare("y"), 1);
  EXPECT_EQ(left.LookupQualified("T", "c"), 2);
}

TEST_F(ExprEvalTest, AggregateOutsideGroupingErrors) {
  auto agg = ParseValue("max(a)");
  EXPECT_EQ(EvalBoth(*agg, row_, bindings_).status().code(),
            StatusCode::kEvalError);
}

}  // namespace
}  // namespace dynview
