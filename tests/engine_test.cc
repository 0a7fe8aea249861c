// End-to-end query engine tests: plain SQL (joins, aggregates, UNION,
// ORDER BY, DISTINCT) and SchemaSQL higher-order evaluation (database,
// relation and attribute variables), exercising the paper's Fig. 2 views as
// queries over the Fig. 1 layouts.

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "relational/catalog.h"
#include "sql/parser.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.num_companies = 3;
    config_.num_dates = 4;
    s1_ = GenerateStockS1(config_);
    ASSERT_TRUE(InstallStockS1(&catalog_, "s1", s1_).ok());
    ASSERT_TRUE(InstallStockS2(&catalog_, "s2", s1_).ok());
    ASSERT_TRUE(InstallStockS3(&catalog_, "s3", s1_).ok());
    ASSERT_TRUE(InstallDb0(&catalog_, "db0", config_).ok());
  }

  Table Run(const std::string& sql) {
    QueryEngine engine(&catalog_, "s1");
    auto r = engine.ExecuteSql(sql);
    EXPECT_TRUE(r.ok()) << sql << "\n  -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : Table();
  }

  Status RunError(const std::string& sql) {
    QueryEngine engine(&catalog_, "s1");
    auto r = engine.ExecuteSql(sql);
    EXPECT_FALSE(r.ok()) << sql;
    return r.ok() ? Status::OK() : r.status();
  }

  StockGenConfig config_;
  Table s1_;
  Catalog catalog_;
};

TEST_F(EngineTest, ScanAndProject) {
  Table t = Run("select C, P from s1::stock T, T.company C, T.price P");
  EXPECT_EQ(t.num_rows(), s1_.num_rows());
  EXPECT_EQ(t.schema().num_columns(), 2u);
  EXPECT_EQ(t.schema().column(0).name, "C");
}

TEST_F(EngineTest, SelectStarExpandsAllColumns) {
  Table t = Run("select * from s1::stock T");
  EXPECT_EQ(t.schema().num_columns(), 3u);
  EXPECT_EQ(t.num_rows(), s1_.num_rows());
  EXPECT_TRUE(t.BagEquals(s1_));
}

TEST_F(EngineTest, FilterWithComparison) {
  Table t = Run("select P from s1::stock T, T.price P where P > 200");
  for (const Row& r : t.rows()) EXPECT_GT(r[0].as_int(), 200);
  Table all = Run("select P from s1::stock T, T.price P");
  Table low = Run("select P from s1::stock T, T.price P where P <= 200");
  EXPECT_EQ(t.num_rows() + low.num_rows(), all.num_rows());
}

TEST_F(EngineTest, ColumnRefShorthand) {
  Table t = Run("select T.company, T.price from s1::stock T "
                "where T.price >= 50");
  EXPECT_EQ(t.num_rows(), s1_.num_rows());
  EXPECT_EQ(t.schema().column(0).name, "company");
}

TEST_F(EngineTest, BareColumnNameResolution) {
  Table t = Run("select company from s1::stock T where price > 200");
  Table q = Run("select T.company from s1::stock T where T.price > 200");
  EXPECT_TRUE(t.BagEquals(q));
}

TEST_F(EngineTest, EquiJoinViaHashJoin) {
  // Join db0.stock with db0.cotype on company.
  Table t = Run(
      "select C, Y from db0::stock T1, db0::cotype T2, "
      "T1.company C, T2.co C2, T2.type Y where C = C2");
  EXPECT_EQ(t.num_rows(), s1_.num_rows());
  for (const Row& r : t.rows()) EXPECT_FALSE(r[1].is_null());
}

TEST_F(EngineTest, SelfJoinConsecutiveDates) {
  // Fig. 11's Q1 shape: consecutive-day self join.
  Table t = Run(
      "select C1 from s1::stock T1, s1::stock T2, "
      "T1.company C1, T2.company C2, T1.date D1, T2.date D2 "
      "where D1 = D2 + 1 and C1 = C2");
  // Each company contributes (num_dates - 1) consecutive pairs.
  EXPECT_EQ(t.num_rows(),
            static_cast<size_t>(config_.num_companies) *
                (config_.num_dates - 1));
}

TEST_F(EngineTest, CrossProductWithoutJoinKeys) {
  Table t = Run("select 1 from db0::cotype T1, db0::cotype T2");
  EXPECT_EQ(t.num_rows(), static_cast<size_t>(config_.num_companies) *
                              config_.num_companies);
}

TEST_F(EngineTest, DateLiteralsAndDateArithmetic) {
  Table t = Run(
      "select D from s1::stock T, T.date D where D >= DATE '1998-01-03'");
  // Dates 01-03 and 01-04 qualify: 2 of 4 dates per company.
  EXPECT_EQ(t.num_rows(), static_cast<size_t>(config_.num_companies) * 2);
}

TEST_F(EngineTest, GroupByWithAggregates) {
  Table t = Run(
      "select C, count(*), min(P), max(P), avg(P) "
      "from s1::stock T, T.company C, T.price P group by C");
  EXPECT_EQ(t.num_rows(), static_cast<size_t>(config_.num_companies));
  for (const Row& r : t.rows()) {
    EXPECT_EQ(r[1].as_int(), config_.num_dates);
    EXPECT_LE(r[2].as_int(), r[3].as_int());
    EXPECT_GE(r[4].as_double(), static_cast<double>(r[2].as_int()));
    EXPECT_LE(r[4].as_double(), static_cast<double>(r[3].as_int()));
  }
}

TEST_F(EngineTest, GlobalAggregateWithoutGroupBy) {
  Table t = Run("select count(*), sum(P) from s1::stock T, T.price P");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.row(0)[0].as_int(), static_cast<int64_t>(s1_.num_rows()));
}

TEST_F(EngineTest, GlobalAggregateOnEmptyInput) {
  Table t = Run("select count(*) from s1::stock T, T.price P where P < 0");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.row(0)[0].as_int(), 0);
}

TEST_F(EngineTest, HavingFiltersGroups) {
  Table all = Run("select C from s1::stock T, T.company C group by C");
  Table some = Run(
      "select C from s1::stock T, T.company C, T.price P "
      "group by C having max(P) > 200");
  EXPECT_LE(some.num_rows(), all.num_rows());
}

TEST_F(EngineTest, CountDistinct) {
  Table t = Run("select count(distinct C) from s1::stock T, T.company C");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.row(0)[0].as_int(), config_.num_companies);
}

TEST_F(EngineTest, DistinctRemovesDuplicates) {
  Table t = Run("select distinct C from s1::stock T, T.company C");
  EXPECT_EQ(t.num_rows(), static_cast<size_t>(config_.num_companies));
}

TEST_F(EngineTest, OrderByAscendingAndDescending) {
  Table t = Run("select P from s1::stock T, T.price P order by P");
  for (size_t i = 1; i < t.num_rows(); ++i) {
    EXPECT_LE(t.row(i - 1)[0].as_int(), t.row(i)[0].as_int());
  }
  Table d = Run("select P from s1::stock T, T.price P order by P desc");
  for (size_t i = 1; i < d.num_rows(); ++i) {
    EXPECT_GE(d.row(i - 1)[0].as_int(), d.row(i)[0].as_int());
  }
}

TEST_F(EngineTest, UnionDistinctAndUnionAll) {
  Table u = Run("select C from s1::stock T, T.company C union "
                "select C from s1::stock T, T.company C");
  EXPECT_EQ(u.num_rows(), static_cast<size_t>(config_.num_companies));
  Table ua = Run("select C from s1::stock T, T.company C union all "
                 "select C from s1::stock T, T.company C");
  EXPECT_EQ(ua.num_rows(), 2 * s1_.num_rows());
}

// ---- Higher-order evaluation ----------------------------------------------

TEST_F(EngineTest, RelationVariableUnfoldsS2ToS1) {
  // Fig. 2 / Fig. 15 view v2 body: s2 → s1.
  Table t = Run("select R, D, P from s2 -> R, R T, T.date D, T.price P");
  EXPECT_TRUE(t.BagEquals(s1_)) << "got:\n" << t.ToString(20) << "want:\n"
                                << s1_.ToString(20);
  EXPECT_EQ(t.schema().column(0).name, "R");
}

TEST_F(EngineTest, AttributeVariableUnpivotsS3ToS1) {
  // Fig. 2 / Fig. 15 view v3 body: s3 → s1. With one price per (co, date)
  // the pivot was lossless, so the unpivot returns exactly s1.
  Table t = Run(
      "select A, D, P from s3::stock -> A, s3::stock T, T.date D, T.A P "
      "where A <> 'date'");
  EXPECT_TRUE(t.BagEquals(s1_)) << "got:\n" << t.ToString(20);
}

TEST_F(EngineTest, DatabaseVariableRangesOverFederation) {
  Table t = Run("select DB from -> DB, DB::stock T");
  // s1, s3 and db0 have a relation named stock; s2 does not.
  size_t expected = s1_.num_rows()            // s1
                    + config_.num_dates       // s3 (one row per date)
                    + s1_.num_rows();         // db0
  EXPECT_EQ(t.num_rows(), expected);
}

TEST_F(EngineTest, SchemaVariableValueInPredicate) {
  // Quantify over company relations, filter by label — the query SQL cannot
  // express data-independently (Sec. 1.1).
  Table t = Run("select D from s2 -> R, R T, T.date D where R = 'coA'");
  EXPECT_EQ(t.num_rows(), static_cast<size_t>(config_.num_dates));
}

TEST_F(EngineTest, FindCompaniesOverThreshold) {
  // The motivating query of Sec. 1.1: "find all companies whose stock price
  // has ever gone over $100" — expressed against s2 via a relation variable.
  Table via_s2 = Run(
      "select distinct R from s2 -> R, R T, T.price P where P > 100");
  Table via_s1 = Run(
      "select distinct C from s1::stock T, T.company C, T.price P "
      "where P > 100");
  EXPECT_EQ(via_s2.num_rows(), via_s1.num_rows());
}

TEST_F(EngineTest, AttributeVariableWithAggregates) {
  // Ex. 5.2 shape: MAX through an attribute-variable scan of s3.
  Table q = Run(
      "select D, max(P) from s1::stock T, T.date D, T.price P group by D");
  Table qp = Run(
      "select D, max(P) from s3::stock T, T.date D, s3::stock -> A, T.A P "
      "where A <> 'date' group by D");
  q.SortRows();
  qp.SortRows();
  EXPECT_TRUE(q.BagEquals(qp)) << q.ToString(10) << qp.ToString(10);
}

TEST_F(EngineTest, EmptyGroundingYieldsEmptyTable) {
  Table t = Run("select R, D from nosuchdb -> R, R T, T.date D");
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.schema().num_columns(), 2u);
}

TEST_F(EngineTest, GroundingsWithLookAlikeSchemasKeepTheirOwnPipelines) {
  // Labels are data, so a column name may contain any text: one column
  // named "x:NULL,y" must not pass for the two columns x and y.
  Table one(Schema::FromNames({"x:NULL,y"}));
  one.AppendRowUnchecked({Value::Int(1)});
  Table two(Schema::FromNames({"x", "y"}));
  two.AppendRowUnchecked({Value::Int(2), Value::Int(3)});
  ASSERT_TRUE(catalog_.PutTable("odd", "r1", std::move(one)).ok());
  ASSERT_TRUE(catalog_.PutTable("odd", "r2", std::move(two)).ok());
  Table t = Run("select R from odd -> R, R T");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.row(0)[0].as_string(), "r1");
  EXPECT_EQ(t.row(1)[0].as_string(), "r2");
}

// ---- Error handling --------------------------------------------------------

TEST_F(EngineTest, MissingTableReported) {
  Status s = RunError("select 1 from s1::nothere T");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, MissingAttributeReported) {
  Status s = RunError("select X from s1::stock T, T.nosuch X");
  EXPECT_EQ(s.code(), StatusCode::kBindError);
}

TEST_F(EngineTest, AmbiguousBareColumnReported) {
  Status s = RunError("select price from s1::stock T1, s1::stock T2");
  EXPECT_EQ(s.code(), StatusCode::kBindError);
}

TEST_F(EngineTest, TypeErrorSurfaces) {
  Status s = RunError(
      "select 1 from s1::stock T, T.company C, T.price P where C > P");
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
}

}  // namespace
}  // namespace dynview
