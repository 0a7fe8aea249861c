// Differential testing: randomized SPJ(+aggregate) queries generated over
// the db0 schema are executed three ways — naive engine, optimizer plans
// without resources, optimizer plans with view/index access paths — and all
// answers must agree as bags. Query generation is deterministic per seed.

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "optimizer/optimizer.h"
#include "schemasql/view_materializer.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int Pick(uint64_t* state, int n) {
  return static_cast<int>(NextRandom(state) % static_cast<uint64_t>(n));
}

/// Generates a random SPJ query over db0::{stock, cotype}.
std::string GenerateQuery(uint64_t seed, int num_companies) {
  uint64_t state = seed;
  int num_stock = 1 + Pick(&state, 2);     // 1-2 stock occurrences.
  bool with_cotype = Pick(&state, 2) == 0;
  std::string from;
  std::string where;
  auto add_conj = [&](const std::string& c) {
    if (!where.empty()) where += " and ";
    where += c;
  };
  for (int i = 0; i < num_stock; ++i) {
    std::string n = std::to_string(i);
    if (i > 0) from += ", ";
    from += "db0::stock T" + n + ", T" + n + ".company C" + n + ", T" + n +
            ".date D" + n + ", T" + n + ".price P" + n;
    // Random predicate on this occurrence.
    switch (Pick(&state, 4)) {
      case 0:
        add_conj("P" + n + " > " + std::to_string(50 + Pick(&state, 300)));
        break;
      case 1:
        add_conj("P" + n + " between " +
                 std::to_string(50 + Pick(&state, 150)) + " and " +
                 std::to_string(250 + Pick(&state, 150)));
        break;
      case 2:
        add_conj("C" + n + " = '" + CompanyName(Pick(&state, num_companies)) +
                 "'");
        break;
      default:
        break;  // No predicate.
    }
    if (i > 0) {
      // Join with the previous occurrence.
      add_conj(Pick(&state, 2) == 0 ? "C" + n + " = C" + std::to_string(i - 1)
                                    : "D" + n + " = D" + std::to_string(i - 1));
    }
  }
  if (with_cotype) {
    from += ", db0::cotype TC, TC.co CC, TC.type TY";
    add_conj("C0 = CC");
    if (Pick(&state, 2) == 0) {
      add_conj("TY = '" + CompanyTypeName(Pick(&state, 4)) + "'");
    }
  }
  // Select list: 1-3 variables (always from the first stock occurrence so
  // the query is well-formed regardless of the random shape).
  const char* candidates[] = {"C0", "D0", "P0"};
  int k = 1 + Pick(&state, 3);
  std::string select;
  for (int i = 0; i < k; ++i) {
    if (i > 0) select += ", ";
    select += candidates[i];
  }
  // Sometimes aggregate.
  if (Pick(&state, 3) == 0) {
    const char* funcs[] = {"max", "min", "count", "sum"};
    select = "C0, " + std::string(funcs[Pick(&state, 4)]) + "(P0)";
    return "select " + select + " from " + from +
           (where.empty() ? "" : " where " + where) + " group by C0";
  }
  return "select " + select + " from " + from +
         (where.empty() ? "" : " where " + where);
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    StockGenConfig cfg;
    cfg.num_companies = 8;
    cfg.num_dates = 12;
    cfg.prices_per_day = 1;
    ASSERT_TRUE(InstallDb0(&catalog_, "db0", cfg).ok());
    QueryEngine engine(&catalog_, "db0");
    const std::string view_sql =
        "create view db1::C(date, price) as "
        "select D, P from db0::stock T, T.company C, T.date D, T.price P";
    ASSERT_TRUE(ViewMaterializer::MaterializeSql(view_sql, &engine, &catalog_,
                                                 "db1")
                    .ok());
    view_ = std::make_shared<ViewDefinition>(
        ViewDefinition::FromSql(view_sql, catalog_, "db0").value());
    index_ = std::make_shared<ViewIndex>(
        ViewIndex::BuildSql(
            "create index byCompany as btree by given T.company "
            "select T.company, T.date, T.price, T.exch from db0::stock T",
            &engine)
            .value());
  }

  Catalog catalog_;
  std::shared_ptr<ViewDefinition> view_;
  std::shared_ptr<ViewIndex> index_;
};

TEST_P(DifferentialTest, EngineVsOptimizerVsResources) {
  for (int i = 0; i < 8; ++i) {
    uint64_t seed = GetParam() * 1000 + static_cast<uint64_t>(i);
    std::string sql = GenerateQuery(seed, 8);
    SCOPED_TRACE(sql);
    QueryEngine engine(&catalog_, "db0");
    auto direct = engine.ExecuteSql(sql);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();

    Optimizer plain(&catalog_, "db0");
    auto plan_plain = plain.Plan(sql);
    ASSERT_TRUE(plan_plain.ok()) << plan_plain.status().ToString();
    auto p0 = plain.Execute(plan_plain.value());
    ASSERT_TRUE(p0.ok()) << p0.status().ToString();
    EXPECT_TRUE(direct.value().BagEquals(p0.value()));

    Optimizer rich(&catalog_, "db0");
    rich.EnableStatistics();
    rich.RegisterView(view_);
    EXPECT_TRUE(rich.RegisterIndex(index_));
    auto plan_rich = rich.Plan(sql);
    ASSERT_TRUE(plan_rich.ok()) << plan_rich.status().ToString();
    auto p1 = rich.Execute(plan_rich.value());
    ASSERT_TRUE(p1.ok()) << p1.status().ToString();
    EXPECT_TRUE(direct.value().BagEquals(p1.value()))
        << "resource plan diverges:\n"
        << plan_rich.value().Describe();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace dynview
