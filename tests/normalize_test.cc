// Unit tests for core/normalize: bringing queries into the Sec. 5 explicit
// variable-declaration normal form.

#include <gtest/gtest.h>

#include "common/str_util.h"
#include "core/normalize.h"
#include "engine/query_engine.h"
#include "sql/parser.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

class NormalizeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StockGenConfig cfg;
    cfg.num_companies = 2;
    Table s1 = GenerateStockS1(cfg);
    ASSERT_TRUE(InstallStockS1(&catalog_, "s1", s1).ok());
    ASSERT_TRUE(InstallDb0(&catalog_, "db0", cfg).ok());
  }

  std::unique_ptr<SelectStmt> Normalize(const std::string& sql) {
    auto stmt = Parser::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto out = std::move(stmt).value();
    auto bq = NormalizeQuery(out.get(), catalog_, "s1");
    EXPECT_TRUE(bq.ok()) << sql << "\n  -> " << bq.status().ToString();
    return out;
  }

  static size_t CountDomainVars(const SelectStmt& s) {
    size_t n = 0;
    for (const FromItem& f : s.from_items) {
      if (f.kind == FromItemKind::kDomainVar) ++n;
    }
    return n;
  }

  Catalog catalog_;
};

TEST_F(NormalizeTest, BareColumnsBecomeDomainVariables) {
  auto s = Normalize("select company from s1::stock T where price > 100");
  // All expressions are now variable references.
  EXPECT_EQ(s->select_list[0].expr->kind, ExprKind::kVarRef);
  EXPECT_EQ(s->where->left->kind, ExprKind::kVarRef);
  // Every attribute of stock is declared: company, date, price.
  EXPECT_EQ(CountDomainVars(*s), 3u);
}

TEST_F(NormalizeTest, ColumnRefsBecomeDomainVariables) {
  auto s = Normalize("select T.company from s1::stock T where T.price > 100");
  EXPECT_EQ(s->select_list[0].expr->kind, ExprKind::kVarRef);
  EXPECT_EQ(CountDomainVars(*s), 3u);
}

TEST_F(NormalizeTest, ExistingDeclarationsAreReused) {
  auto s = Normalize(
      "select C from s1::stock T, T.company C where T.company = 'coA'");
  // T.company reuses C; no duplicate declaration for company.
  size_t company_decls = 0;
  for (const FromItem& f : s->from_items) {
    if (f.kind == FromItemKind::kDomainVar && f.attr.text == "company") {
      ++company_decls;
    }
  }
  EXPECT_EQ(company_decls, 1u);
  EXPECT_EQ(s->where->left->var_name, "C");
}

TEST_F(NormalizeTest, SynthesizedNamesAvoidCollisions) {
  // Two tuple variables over the same table: the second set of synthesized
  // names must not collide with the first.
  auto s = Normalize(
      "select T1.price from s1::stock T1, s1::stock T2 "
      "where T1.company = T2.company");
  EXPECT_EQ(CountDomainVars(*s), 6u);
  std::set<std::string> names;
  for (const FromItem& f : s->from_items) {
    if (f.kind == FromItemKind::kDomainVar) {
      EXPECT_TRUE(names.insert(ToLower(f.var)).second)
          << "duplicate variable " << f.var;
    }
  }
}

TEST_F(NormalizeTest, NormalizedQueryStillEvaluates) {
  QueryEngine engine(&catalog_, "s1");
  auto plain = engine.ExecuteSql(
      "select company, price from s1::stock T where price > 100");
  auto s = Normalize(
      "select company, price from s1::stock T where price > 100");
  ASSERT_TRUE(Binder::BindBranch(s.get()).ok());
  auto normalized = engine.Execute(s.get());
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(normalized.ok()) << normalized.status().ToString();
  EXPECT_TRUE(plain.value().BagEquals(normalized.value()));
}

TEST_F(NormalizeTest, UnknownBareColumnRejected) {
  auto stmt = Parser::ParseSelect("select nosuch from s1::stock T").value();
  auto bq = NormalizeQuery(stmt.get(), catalog_, "s1");
  EXPECT_EQ(bq.status().code(), StatusCode::kBindError);
}

TEST_F(NormalizeTest, AmbiguousBareColumnRejected) {
  auto stmt = Parser::ParseSelect(
                  "select price from s1::stock T1, s1::stock T2")
                  .value();
  auto bq = NormalizeQuery(stmt.get(), catalog_, "s1");
  EXPECT_EQ(bq.status().code(), StatusCode::kBindError);
}

TEST_F(NormalizeTest, GroupByAndHavingNormalized) {
  auto s = Normalize(
      "select company, max(price) from s1::stock T "
      "group by company having min(price) > 10");
  EXPECT_EQ(s->group_by[0]->kind, ExprKind::kVarRef);
  EXPECT_EQ(s->having->left->left->kind, ExprKind::kVarRef);
}

}  // namespace
}  // namespace dynview
