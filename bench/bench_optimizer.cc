// Sec. 6 reproduction: a conventional DP optimizer with dynamic views and
// view-described indexes as primitive access paths.
//
// Paper claims verified here:
//   * the extension requires only the Chaudhuri-style bookkeeping the
//     translation already produces (tables + predicates answered), so
//     planning time grows modestly when resources are registered;
//   * resource-aware plans carry lower estimated (and actual) cost;
//   * plans with and without resources return identical answers.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "optimizer/optimizer.h"
#include "schemasql/view_materializer.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

constexpr char kViewSql[] =
    "create view db1::C(date, price) as "
    "select D, P from db0::stock T, T.company C, T.date D, T.price P";

struct Setup {
  Catalog catalog;
  std::shared_ptr<ViewDefinition> view;
  std::shared_ptr<ViewIndex> index;

  explicit Setup(int companies, int dates) {
    StockGenConfig cfg;
    cfg.num_companies = companies;
    cfg.num_dates = dates;
    InstallDb0(&catalog, "db0", cfg);
    QueryEngine engine(&catalog, "db0");
    ViewMaterializer::MaterializeSql(kViewSql, &engine, &catalog, "db1")
        .value();
    view = std::make_shared<ViewDefinition>(
        ViewDefinition::FromSql(kViewSql, catalog, "db0").value());
    index = std::make_shared<ViewIndex>(
        ViewIndex::BuildSql(
            "create index byCompany as btree by given T.company "
            "select T.company, T.date, T.price, T.exch from db0::stock T",
            &engine)
            .value());
  }

  Optimizer Make(bool with_resources) const {
    Optimizer opt(&catalog, "db0");
    if (with_resources) {
      opt.RegisterView(view);
      opt.RegisterIndex(index);
    }
    return opt;
  }
};

/// Chain query over k stock copies plus cotype.
std::string JoinQuery(int k) {
  std::string from = "db0::cotype TC, TC.co CC, TC.type TY";
  std::string where = "TY = 'hitech'";
  for (int i = 0; i < k; ++i) {
    std::string n = std::to_string(i);
    from += ", db0::stock T" + n + ", T" + n + ".company C" + n + ", T" + n +
            ".price P" + n;
    where += " and C" + n + " = CC and P" + n + " > 100";
  }
  return "select CC from " + from + " where " + where;
}

void PrintReproduction() {
  std::printf("=== Sec. 6: views and indexes as access paths ===\n");
  Setup s(8, 40);
  const std::string q =
      "select D, P from db0::stock T, T.company C, T.date D, T.price P "
      "where C = 'coC'";
  Optimizer base = s.Make(false);
  Optimizer ext = s.Make(true);
  auto p0 = base.Plan(q).value();
  auto p1 = ext.Plan(q).value();
  std::printf("query: %s\n\nbaseline plan:\n%s\nextended plan:\n%s\n",
              q.c_str(), p0.Describe().c_str(), p1.Describe().c_str());
  auto r0 = base.Execute(p0).value();
  auto r1 = ext.Execute(p1).value();
  std::printf("answers agree: %s (%zu rows); est cost %.0f -> %.0f\n\n",
              r0.BagEquals(r1) ? "yes" : "NO", r0.num_rows(), p0.est_cost,
              p1.est_cost);
}

void BM_PlanBaseline(benchmark::State& state) {
  Setup s(10, 50);
  Optimizer opt = s.Make(false);
  std::string q = JoinQuery(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto p = opt.Plan(q);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PlanBaseline)->Arg(1)->Arg(2)->Arg(4)->Arg(6);

void BM_PlanWithResources(benchmark::State& state) {
  Setup s(10, 50);
  Optimizer opt = s.Make(true);
  std::string q = JoinQuery(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto p = opt.Plan(q);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PlanWithResources)->Arg(1)->Arg(2)->Arg(4)->Arg(6);

void BM_ExecuteBaseline(benchmark::State& state) {
  Setup s(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  Optimizer opt = s.Make(false);
  const std::string q =
      "select D, P from db0::stock T, T.company C, T.date D, T.price P "
      "where C = 'coC'";
  auto plan = opt.Plan(q).value();
  for (auto _ : state) {
    auto r = opt.Execute(plan);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ExecuteBaseline)->Args({20, 200})->Args({50, 500});

void BM_ExecuteWithIndex(benchmark::State& state) {
  Setup s(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  Optimizer opt = s.Make(true);
  const std::string q =
      "select D, P from db0::stock T, T.company C, T.date D, T.price P "
      "where C = 'coC'";
  auto plan = opt.Plan(q).value();
  for (auto _ : state) {
    auto r = opt.Execute(plan);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ExecuteWithIndex)->Args({20, 200})->Args({50, 500});

}  // namespace
}  // namespace dynview

int main(int argc, char** argv) {
  dynview::PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
