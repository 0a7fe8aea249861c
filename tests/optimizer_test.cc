// Optimizer tests (Sec. 6): views and view-described indexes as primitive
// access paths in a Selinger-style DP optimizer; plans always produce the
// same answers as direct evaluation; resources lower estimated cost.

#include <gtest/gtest.h>

#include "core/view_definition.h"
#include "engine/query_engine.h"
#include "optimizer/optimizer.h"
#include "schemasql/view_materializer.h"
#include "workload/hotel_data.h"
#include "workload/stock_data.h"
#include "workload/tickets_data.h"

namespace dynview {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StockGenConfig cfg;
    cfg.num_companies = 6;
    cfg.num_dates = 10;
    ASSERT_TRUE(InstallDb0(&catalog_, "db0", cfg).ok());
    QueryEngine engine(&catalog_, "db0");
    // Materialize the Fig. 11 relation-variable view into db1.
    const std::string rel_view =
        "create view db1::C(date, price) as "
        "select D, P from db0::stock T, T.company C, T.date D, T.price P";
    ASSERT_TRUE(ViewMaterializer::MaterializeSql(rel_view, &engine, &catalog_,
                                                 "db1")
                    .ok());
    auto vd = ViewDefinition::FromSql(rel_view, catalog_, "db0");
    ASSERT_TRUE(vd.ok()) << vd.status().ToString();
    rel_view_ = std::make_shared<ViewDefinition>(std::move(vd).value());

    // A B+-tree index on stock.company described by a view.
    auto idx = ViewIndex::BuildSql(
        "create index byCompany as btree by given T.company "
        "select T.company, T.date, T.price, T.exch from db0::stock T",
        &engine);
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    company_index_ = std::make_shared<ViewIndex>(std::move(idx).value());
  }

  Optimizer MakeOptimizer(bool with_resources) {
    Optimizer opt(&catalog_, "db0");
    if (with_resources) {
      opt.RegisterView(rel_view_);
      EXPECT_TRUE(opt.RegisterIndex(company_index_));
    }
    return opt;
  }

  Table Direct(const std::string& sql) {
    QueryEngine engine(&catalog_, "db0");
    auto r = engine.ExecuteSql(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : Table();
  }

  Catalog catalog_;
  std::shared_ptr<ViewDefinition> rel_view_;
  std::shared_ptr<ViewIndex> company_index_;
};

TEST_F(OptimizerTest, BaselinePlanMatchesDirectEvaluation) {
  Optimizer opt = MakeOptimizer(false);
  const std::string q =
      "select C, P from db0::stock T, T.company C, T.price P where P > 200";
  auto plan = opt.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan.value().uses_views);
  auto result = opt.Execute(plan.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().BagEquals(Direct(q)));
}

TEST_F(OptimizerTest, TwoVariablesOverOneAttribute) {
  // Each domain variable declared over the same attribute is its own column
  // of the access path — through a scan (baseline) and an index probe.
  const std::string q =
      "select C1, C2, P from db0::stock T, T.company C1, T.company C2, "
      "T.price P where C1 = 'coA'";
  for (bool with_resources : {false, true}) {
    SCOPED_TRACE(with_resources);
    Optimizer opt = MakeOptimizer(with_resources);
    auto plan = opt.Plan(q);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto result = opt.Execute(plan.value());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result.value().BagEquals(Direct(q)))
        << plan.value().Describe();
  }
}

TEST_F(OptimizerTest, JoinPlanMatchesDirectEvaluation) {
  Optimizer opt = MakeOptimizer(false);
  const std::string q =
      "select C, Y from db0::stock T1, db0::cotype T2, "
      "T1.company C, T1.price P, T2.co C2, T2.type Y "
      "where C = C2 and P > 150";
  auto plan = opt.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto result = opt.Execute(plan.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().BagEquals(Direct(q)));
}

TEST_F(OptimizerTest, IndexProbeChosenForKeyEquality) {
  Optimizer opt = MakeOptimizer(true);
  const std::string q =
      "select D, P from db0::stock T, T.company C, T.date D, T.price P "
      "where C = 'coA'";
  auto plan = opt.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan.value().uses_indexes) << plan.value().Describe();
  auto baseline = opt.PlanBaseline(q);
  ASSERT_TRUE(baseline.ok());
  EXPECT_LT(plan.value().est_cost, baseline.value().est_cost);
  auto result = opt.Execute(plan.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().BagEquals(Direct(q)));
}

TEST_F(OptimizerTest, ViewScanProducesCorrectAnswers) {
  Optimizer opt = MakeOptimizer(true);
  const std::string q =
      "select C, P from db0::stock T, T.company C, T.price P where P > 250";
  auto plan = opt.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto result = opt.Execute(plan.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().BagEquals(Direct(q)));
}

TEST_F(OptimizerTest, MixedViewAndBaseTableJoin) {
  Optimizer opt = MakeOptimizer(true);
  const std::string q =
      "select C, Y from db0::stock T1, db0::cotype T2, "
      "T1.company C, T1.price P, T2.co C2, T2.type Y "
      "where C = C2 and P > 100";
  auto plan = opt.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto result = opt.Execute(plan.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().BagEquals(Direct(q)))
      << plan.value().Describe();
}

TEST_F(OptimizerTest, SelfJoinPlansCorrectly) {
  Optimizer opt = MakeOptimizer(true);
  const std::string q =
      "select C1 from db0::stock T1, db0::stock T2, "
      "T1.company C1, T2.company C2, T1.date D1, T2.date D2, "
      "T1.price P1, T2.price P2 "
      "where D1 = D2 + 1 and P1 > 200 and P2 > 200 and C1 = C2";
  auto plan = opt.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto result = opt.Execute(plan.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().BagEquals(Direct(q)));
}

TEST_F(OptimizerTest, AggregationAboveThePlan) {
  Optimizer opt = MakeOptimizer(true);
  const std::string q =
      "select C, count(*), max(P) from db0::stock T, T.company C, T.price P "
      "group by C having min(P) > 40";
  auto plan = opt.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto result = opt.Execute(plan.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().BagEquals(Direct(q)));
}

TEST_F(OptimizerTest, DistinctAndOrderBy) {
  Optimizer opt = MakeOptimizer(true);
  const std::string q =
      "select distinct C from db0::stock T, T.company C, T.price P "
      "where P > 100 order by C";
  auto plan = opt.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto result = opt.Execute(plan.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().BagEquals(Direct(q)));
}

TEST_F(OptimizerTest, PlanDescriptionIsInformative) {
  Optimizer opt = MakeOptimizer(true);
  auto plan = opt.Plan(
      "select D, P from db0::stock T, T.company C, T.date D, T.price P "
      "where C = 'coB'");
  ASSERT_TRUE(plan.ok());
  std::string desc = plan.value().Describe();
  EXPECT_NE(desc.find("cost="), std::string::npos);
  EXPECT_NE(desc.find("rows="), std::string::npos);
}

TEST_F(OptimizerTest, RejectsHigherOrderInput) {
  Optimizer opt = MakeOptimizer(true);
  auto plan = opt.Plan("select R from db1 -> R, R T");
  EXPECT_EQ(plan.status().code(), StatusCode::kUnsupported);
}

TEST_F(OptimizerTest, CompetingViewsPickTheCheaper) {
  // Two usable sources: the full partitioned copy (db1) and a much smaller
  // pre-filtered SQL view (db3::high, P > 250). For a query subsumed by the
  // filter the optimizer must cost-prefer the smaller materialization.
  QueryEngine engine(&catalog_, "db0");
  const std::string high_view =
      "create view db3::high(co, dt, pr) as "
      "select C, D, P from db0::stock T, T.company C, T.date D, T.price P "
      "where P > 250";
  ASSERT_TRUE(ViewMaterializer::MaterializeSql(high_view, &engine, &catalog_,
                                               "db3")
                  .ok());
  auto high_def = ViewDefinition::FromSql(high_view, catalog_, "db0");
  ASSERT_TRUE(high_def.ok());
  Optimizer opt(&catalog_, "db0");
  opt.RegisterView(rel_view_);
  opt.RegisterView(
      std::make_shared<ViewDefinition>(std::move(high_def).value()));
  const std::string q =
      "select C, P from db0::stock T, T.company C, T.price P where P > 300";
  auto plan = opt.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan.value().uses_views) << plan.value().Describe();
  EXPECT_NE(plan.value().Describe().find("db3::high"), std::string::npos)
      << plan.value().Describe();
  auto result = opt.Execute(plan.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().BagEquals(Direct(q)));
}

TEST_F(OptimizerTest, InvertedIndexAccessPathForKeywordPredicate) {
  // Fig. 9 through the optimizer: a HASWORD predicate matching a registered
  // inverted index becomes an index probe, and answers agree with the scan.
  Catalog cat;
  HotelGenConfig hcfg;
  hcfg.num_hotels = 40;
  ASSERT_TRUE(InstallHotelDatabase(&cat, "hoteldb", hcfg).ok());
  ASSERT_TRUE(InstallHotelwords(&cat, "hoteldb").ok());
  QueryEngine engine(&cat, "hoteldb");
  auto idx = ViewIndex::BuildSql(
      "create index keywords as inverted by given T.value "
      "select T.value, T.hid, T.attribute from hoteldb::hotelwords T",
      &engine);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  Optimizer opt(&cat, "hoteldb");
  EXPECT_TRUE(
      opt.RegisterIndex(std::make_shared<ViewIndex>(std::move(idx).value())));
  const std::string q =
      "select H, A from hoteldb::hotelwords T, T.hid H, T.attribute A, "
      "T.value V where hasword(V, 'sofitel')";
  auto plan = opt.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan.value().uses_indexes) << plan.value().Describe();
  EXPECT_NE(plan.value().Describe().find("keyword"), std::string::npos);
  auto result = opt.Execute(plan.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto direct = engine.ExecuteSql(q);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(result.value().BagEquals(direct.value()))
      << plan.value().Describe();
  EXPECT_GT(result.value().num_rows(), 0u);
}

TEST_F(OptimizerTest, Fig9CombinedStructuredAndUnstructuredPlan) {
  // Sec. 3.3's planning claim: the combined Sofitel-in-Athens query uses the
  // inverted index for the unstructured predicate while the structured side
  // joins normally, in ONE plan.
  Catalog cat;
  HotelGenConfig cfg;
  cfg.num_hotels = 40;
  ASSERT_TRUE(InstallHotelDatabase(&cat, "hoteldb", cfg).ok());
  ASSERT_TRUE(InstallHotelwords(&cat, "hoteldb").ok());
  QueryEngine engine(&cat, "hoteldb");
  auto idx = ViewIndex::BuildSql(
      "create index keywords as inverted by given T.value "
      "select T.value, T.hid, T.attribute from hoteldb::hotelwords T",
      &engine);
  ASSERT_TRUE(idx.ok());
  Optimizer opt(&cat, "hoteldb");
  EXPECT_TRUE(
      opt.RegisterIndex(std::make_shared<ViewIndex>(std::move(idx).value())));
  const std::string q =
      "select H1 from hoteldb::hotelwords T1, hoteldb::hotelwords T2, "
      "T1.hid H1, T1.value V1, T2.hid H2, T2.attribute A2, T2.value V2 "
      "where H1 = H2 and hasword(V1, 'sofitel') and A2 = 'city' "
      "and V2 = 'Athens'";
  auto plan = opt.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string desc = plan.value().Describe();
  EXPECT_TRUE(plan.value().uses_indexes) << desc;
  EXPECT_NE(desc.find("keyword = 'sofitel'"), std::string::npos) << desc;
  EXPECT_NE(desc.find("Join"), std::string::npos) << desc;
  auto result = opt.Execute(plan.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto direct = engine.ExecuteSql(q);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(result.value().BagEquals(direct.value())) << desc;
  EXPECT_GT(result.value().num_rows(), 0u);
}

TEST_F(OptimizerTest, TicketFusionScenarioFig4) {
  // End-to-end Fig. 4: the dui fusion query planned over the integration
  // with a view-described index on infraction.
  Catalog cat;
  TicketsGenConfig tcfg;
  tcfg.tickets_per_jurisdiction = 80;
  ASSERT_TRUE(InstallTicketsIntegration(&cat, "integration", tcfg).ok());
  QueryEngine engine(&cat, "integration");
  auto idx = ViewIndex::BuildSql(
      "create index byInfr as btree by given T.infr "
      "select T.infr, T.state, T.tnum, T.lic from integration::tickets T",
      &engine);
  ASSERT_TRUE(idx.ok());
  Optimizer opt(&cat, "integration");
  EXPECT_TRUE(
      opt.RegisterIndex(std::make_shared<ViewIndex>(std::move(idx).value())));
  const std::string q =
      "select L1, I2 from integration::tickets T1, integration::tickets T2, "
      "T1.lic L1, T1.infr I1, T1.tnum N1, T2.lic L2, T2.infr I2, T2.tnum N2 "
      "where L1 = L2 and I1 = 'dui' and N1 <> N2";
  auto plan = opt.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan.value().uses_indexes) << plan.value().Describe();
  auto result = opt.Execute(plan.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto direct = engine.ExecuteSql(q);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(result.value().BagEquals(direct.value()));
}

}  // namespace
}  // namespace dynview
