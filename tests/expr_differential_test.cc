// Expression-level differential oracle (ctest -L compiled): seeded random
// expression trees are evaluated by the compiled flat-op program
// (engine/expr_compile.h) and by the reference tree walk (reference_eval.h),
// in value and predicate context, over rows of mixed and NULL values. The
// two must agree on every value and on every full Status string — which
// error, raised by which node, after which short-circuit.
//
// The generator covers every ExprKind plus the deferred-error cases a
// compiled program holds as kFail ops: unresolved and ambiguous names,
// uninstantiated attribute variables, unbound parameters, `*`, and
// aggregates outside a grouping context. Grouping mode compiles aggregates
// to slots past the row and checks them against the reference walk over
// the same tree with each aggregate folded to a literal.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "engine/expr_compile.h"
#include "engine/expr_eval.h"
#include "reference_eval.h"
#include "sql/parser.h"

namespace dynview {
namespace {

constexpr int kWidth = 8;  // Row slots; aggregate slots start here.

/// T1(a, s, x) at slots 0-2, T2(b, x, d, flag, n) at 3-7; domain variables
/// v → 0 and w → 5. Bare `x` is ambiguous; `zz` resolves nowhere.
ColumnBindings MakeBindings() {
  ColumnBindings b;
  const char* t1[] = {"a", "s", "x"};
  for (int i = 0; i < 3; ++i) b.AddQualified("T1", t1[i], i);
  const char* t2[] = {"b", "x", "d", "flag", "n"};
  for (int i = 0; i < 5; ++i) b.AddQualified("T2", t2[i], 3 + i);
  b.AddNamed("v", 0);
  b.AddNamed("w", 5);
  return b;
}

class ExprGen {
 public:
  explicit ExprGen(uint64_t seed) : rng_(seed) {}

  int Pick(int n) {
    return static_cast<int>(rng_() % static_cast<uint64_t>(n));
  }

  Value RandomValue() {
    switch (Pick(7)) {
      case 0: return Value::Null();
      case 1: return Value::Int(Pick(45) - 4);
      case 2: return Value::Double((Pick(80) - 10) / 4.0);
      case 3: {
        const char* pool[] = {"sofitel", "Ritz", "a b c", "", "42", "co%",
                              "x_y", "Sofitel Ritz"};
        return Value::String(pool[Pick(8)]);
      }
      case 4: return Value::Bool(Pick(2) == 0);
      case 5:
        return Value::MakeDate(
            Date::Parse("1998-01-02").value().AddDays(Pick(20) - 10));
      default: return Value::Int(Pick(3));  // Small ints: 0 divisors, ties.
    }
  }

  Row RandomRow() {
    Row r;
    for (int i = 0; i < kWidth; ++i) r.push_back(RandomValue());
    return r;
  }

  std::unique_ptr<Expr> Leaf() {
    switch (Pick(10)) {
      case 0:
      case 1:
        return Expr::MakeLiteral(RandomValue());
      case 2: {
        auto p = Expr::MakeLiteral(Value::Null());
        p->param_index = Pick(3);  // Unbound parameter.
        return p;
      }
      case 3:
      case 4:
      case 5: {
        const char* names[] = {"v", "w", "a", "s", "b", "d",
                               "flag", "n", "x", "zz"};
        return Expr::MakeVarRef(names[Pick(10)]);
      }
      case 6:
      case 7:
      case 8: {
        const char* q[] = {"T1", "T2", "T9"};
        const char* attrs[] = {"a", "s", "x", "b", "d", "flag", "n", "zz"};
        NameTerm col(attrs[Pick(8)]);
        col.is_variable = Pick(8) == 0;  // Uninstantiated attribute variable.
        return Expr::MakeColumnRef(q[Pick(3)], col);
      }
      default:
        return Expr::MakeStar();
    }
  }

  std::unique_ptr<Expr> Gen(int depth) {
    if (depth == 0 || Pick(5) == 0) return Leaf();
    const BinaryOp cmp[] = {BinaryOp::kEq,   BinaryOp::kNotEq,
                            BinaryOp::kLess, BinaryOp::kLessEq,
                            BinaryOp::kGreater, BinaryOp::kGreaterEq};
    const BinaryOp arith[] = {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                              BinaryOp::kDiv};
    switch (Pick(11)) {
      case 0:
        return Expr::MakeBinary(ExprKind::kArith, arith[Pick(4)],
                                Gen(depth - 1), Gen(depth - 1));
      case 1:
      case 2:
        return Expr::MakeCompare(cmp[Pick(6)], Gen(depth - 1), Gen(depth - 1));
      case 3:
      case 4:
        return Expr::MakeBinary(ExprKind::kLogic,
                                Pick(2) == 0 ? BinaryOp::kAnd : BinaryOp::kOr,
                                Gen(depth - 1), Gen(depth - 1));
      case 5:
        return Expr::MakeNot(Gen(depth - 1));
      case 6:
      case 7: {
        const ExprKind k[] = {ExprKind::kLike, ExprKind::kContains,
                              ExprKind::kHasWord};
        std::unique_ptr<Expr> pattern =
            Pick(3) == 0 ? Gen(depth - 1) : Expr::MakeLiteral(RandomValue());
        return Expr::MakeBinary(k[Pick(3)], BinaryOp::kEq, Gen(depth - 1),
                                std::move(pattern));
      }
      case 8:
        return Expr::MakeIsNull(Gen(depth - 1), Pick(2) == 0);
      default: {
        const AggFunc f[] = {AggFunc::kCount, AggFunc::kCountStar,
                             AggFunc::kSum,   AggFunc::kAvg,
                             AggFunc::kMin,   AggFunc::kMax};
        AggFunc func = f[Pick(6)];
        return Expr::MakeAgg(
            func, func == AggFunc::kCountStar ? nullptr : Gen(depth - 1),
            Pick(4) == 0);
      }
    }
  }

 private:
  std::mt19937_64 rng_;
};

/// The reference's view of a grouped expression: each aggregate, in
/// pre-order, replaced by the literal the grouping operator would compute.
std::unique_ptr<Expr> FoldToLiterals(const Expr& e,
                                     const std::vector<Value>& values,
                                     size_t* next) {
  if (e.kind == ExprKind::kAgg) return Expr::MakeLiteral(values[(*next)++]);
  std::unique_ptr<Expr> out = e.Clone();
  if (e.left) out->left = FoldToLiterals(*e.left, values, next);
  if (e.right) out->right = FoldToLiterals(*e.right, values, next);
  return out;
}

void MarkKinds(const Expr& e, std::array<bool, 13>* seen) {
  (*seen)[static_cast<size_t>(e.kind)] = true;
  if (e.left) MarkKinds(*e.left, seen);
  if (e.right) MarkKinds(*e.right, seen);
}

/// Compares the compiled program against the reference on `row` in both
/// contexts. Returns the number of error outcomes seen.
int ExpectAgree(const Expr& e, const ColumnBindings& b, const Row& row) {
  auto value = CompiledExpr::Compile(e, b, /*as_predicate=*/false);
  auto pred = CompiledExpr::Compile(e, b, /*as_predicate=*/true);
  EXPECT_NE(value, nullptr);
  EXPECT_NE(pred, nullptr);
  Result<Value> rv = EvaluateExpr(e, row, b);
  Result<TriBool> rp = EvaluatePredicate(e, row, b);
  EXPECT_EQ(RenderOutcome(rv), RenderOutcome(value->EvalValue(row)))
      << e.ToString();
  EXPECT_EQ(RenderOutcome(rp), RenderOutcome(pred->EvalPredicate(row)))
      << e.ToString();
  return (rv.ok() ? 0 : 1) + (rp.ok() ? 0 : 1);
}

TEST(ExprDifferentialTest, RandomTreesMatchReference) {
  const ColumnBindings b = MakeBindings();
  std::array<bool, 13> kinds{};
  int errors = 0;
  int checks = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    ExprGen gen(seed);
    std::vector<Row> rows;
    for (int i = 0; i < 4; ++i) rows.push_back(gen.RandomRow());
    for (int i = 0; i < 8; ++i) {
      std::unique_ptr<Expr> e = gen.Gen(1 + gen.Pick(4));
      MarkKinds(*e, &kinds);
      for (const Row& row : rows) {
        errors += ExpectAgree(*e, b, row);
        checks += 2;
      }
    }
  }
  for (size_t k = 0; k < kinds.size(); ++k) {
    EXPECT_TRUE(kinds[k]) << "generator never produced ExprKind " << k;
  }
  // Both outcomes must be well represented for the oracle to mean much.
  EXPECT_GT(errors, checks / 10);
  EXPECT_LT(errors, checks - checks / 10);
}

TEST(ExprDifferentialTest, GroupedAggregatesReadTheirSlots) {
  const ColumnBindings b = MakeBindings();
  int with_aggs = 0;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    ExprGen gen(seed * 7919);
    Row row = gen.RandomRow();
    for (int i = 0; i < 8; ++i) {
      std::unique_ptr<Expr> e = gen.Gen(1 + gen.Pick(4));
      std::vector<const Expr*> aggs;
      CollectAggregates(*e, &aggs);
      if (!aggs.empty()) ++with_aggs;
      // Slot k holds aggregate k's value over the group.
      std::vector<Value> values;
      Row widened = row;
      for (size_t k = 0; k < aggs.size(); ++k) {
        values.push_back(gen.RandomValue());
        widened.push_back(values.back());
      }
      size_t next = 0;
      std::unique_ptr<Expr> folded = FoldToLiterals(*e, values, &next);
      ASSERT_EQ(next, aggs.size());
      for (bool as_predicate : {false, true}) {
        auto prog = CompiledExpr::Compile(*e, b, as_predicate, kWidth);
        ASSERT_NE(prog, nullptr);
        if (as_predicate) {
          EXPECT_EQ(RenderOutcome(EvaluatePredicate(*folded, row, b)),
                    RenderOutcome(prog->EvalPredicate(widened)))
              << e->ToString();
        } else {
          EXPECT_EQ(RenderOutcome(EvaluateExpr(*folded, row, b)),
                    RenderOutcome(prog->EvalValue(widened)))
              << e->ToString();
        }
      }
    }
  }
  EXPECT_GT(with_aggs, 100);
}

/// The two fast forms a program takes without its stack loop — a bare slot,
/// and a comparison of slot or literal operands — over every kind pair and
/// every comparison operator: the same values, the same NULLs and the same
/// TypeError text as the reference walk.
TEST(ExprDifferentialTest, CompareAndSlotFastFormsMatchReference) {
  const Date d1 = Date::FromYmd(1998, 1, 2).value();
  const Date d2 = Date::FromYmd(1999, 6, 30).value();
  // Two values per kind (equal, smaller and larger pairs all occur).
  const std::vector<std::vector<Value>> kinds = {
      {Value::Null(), Value::Null()},
      {Value::Bool(false), Value::Bool(true)},
      {Value::Int(3), Value::Int(-7)},
      {Value::Double(2.5), Value::Double(std::nan(""))},
      {Value::MakeDate(d1), Value::MakeDate(d2)},
      {Value::String("ab"), Value::String("b")},
  };
  const BinaryOp ops[] = {BinaryOp::kEq,      BinaryOp::kNotEq,
                          BinaryOp::kLess,    BinaryOp::kLessEq,
                          BinaryOp::kGreater, BinaryOp::kGreaterEq};
  ColumnBindings b;
  b.AddQualified("T", "l", 0);
  b.AddQualified("T", "r", 1);
  auto slot = [](const char* col) {
    return Expr::MakeColumnRef("T", NameTerm(col));
  };
  int checks = 0;
  int errors = 0;
  for (const auto& lk : kinds) {
    for (const auto& rk : kinds) {
      for (const Value& l : lk) {
        for (const Value& r : rk) {
          const Row row = {l, r};
          for (BinaryOp op : ops) {
            // slot op slot, slot op literal, literal op slot.
            std::unique_ptr<Expr> shapes[] = {
                Expr::MakeCompare(op, slot("l"), slot("r")),
                Expr::MakeCompare(op, slot("l"), Expr::MakeLiteral(r)),
                Expr::MakeCompare(op, Expr::MakeLiteral(l), slot("r")),
            };
            for (const auto& e : shapes) {
              EXPECT_EQ(CompiledExpr::Compile(*e, b, true)->num_ops(), 3u);
              errors += ExpectAgree(*e, b, row);
              checks += 2;
            }
          }
          // A bare slot is the row's value, whatever its kind.
          auto bare = slot("r");
          auto prog = CompiledExpr::Compile(*bare, b, /*as_predicate=*/false);
          EXPECT_EQ(prog->bare_slot(), 1);
          errors += ExpectAgree(*bare, b, row);
          checks += 2;
        }
      }
    }
  }
  // Mismatched kinds raise TypeErrors and same-kind pairs compare: both
  // outcomes are well represented.
  EXPECT_GT(errors, checks / 10);
  EXPECT_LT(errors, checks - checks / 10);
}

/// Targeted shapes: each one names the deferred error (or its absence) a
/// random tree only hits by chance.
TEST(ExprDifferentialTest, DeferredErrorsAndShortCircuits) {
  ColumnBindings b = MakeBindings();
  const Row row = {Value::Int(1),        Value::String("sofitel"),
                   Value::Int(7),        Value::Double(2.5),
                   Value::String("x"),   Value::Null(),
                   Value::Bool(true),    Value::Null()};
  const char* preds[] = {
      // Errors on the short-circuited side never fire.
      "a = 2 and zz > 1", "a = 1 or zz > 1", "a = 2 and s > 1",
      "a = 1 or a / 0 > 1", "a = 2 and T1.zz = 1", "a = 1 or x = 1",
      // ... and fire when evaluation reaches them.
      "a = 1 and zz > 1", "a = 2 or x = 1", "a = 1 and T9.a = 1",
      "n = 1 and zz > 1", "n = 1 or s > 1", "not (a = 1 and ? = 1)",
      // Left-to-right error order.
      "zz + x > 1", "x + zz > 1", "s * 2 > a / 0", "a / 0 > s * 2",
      // Aggregates and star outside a grouping context.
      "max(a) > 1", "a = 2 and count(*) > 0", "a = 1 and count(*) > 0",
      // Operators over NULLs and mixed types.
      "s like 'sofi%'", "n like 'x'", "a like 's'", "contains(a, '1')",
      "hasword(s, 'sofitel')", "hasword(s, 'two words')", "n is null",
      "flag", "s", "w", "v + b > 3", "d is not null and d > 1",
  };
  for (const char* p : preds) {
    auto stmt = Parser::ParseSelect(std::string("select 1 from t where ") + p);
    ASSERT_TRUE(stmt.ok()) << p << ": " << stmt.status().ToString();
    ExpectAgree(*stmt.value()->where, b, row);
  }
  // `*` only parses in a select list; build the misplaced shape directly.
  ExpectAgree(*Expr::MakeCompare(BinaryOp::kEq, Expr::MakeStar(),
                                 Expr::MakeLiteral(Value::Int(1))),
              b, row);
  // The program holds the walk's exact status.
  auto zz = Parser::ParseSelect("select zz from t").value();
  EXPECT_EQ(CompiledExpr::Compile(*zz->select_list[0].expr, b, false)
                ->EvalValue(row)
                .status()
                .ToString(),
            "BindError: unresolved name 'zz'");
  auto x = Parser::ParseSelect("select x from t").value();
  EXPECT_EQ(CompiledExpr::Compile(*x->select_list[0].expr, b, false)
                ->EvalValue(row)
                .status()
                .ToString(),
            "BindError: ambiguous column 'x'");
}

}  // namespace
}  // namespace dynview
