// Fig. 6 reproduction: end-to-end cost of answering integration queries
// through registered sources — rewrite + execute vs. direct evaluation on
// locally stored integration data, and the per-query overhead of the
// source-probing loop.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "integration/integration.h"
#include "schemasql/view_materializer.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

/// AnswerGuarded options for bag (multiset) or set semantics.
AnswerOptions Semantics(bool multiset) {
  AnswerOptions options;
  options.multiset = multiset;
  return options;
}

constexpr char kSourceSql[] =
    "create view s2::C(date, price) as "
    "select D, P from I::stock T, T.company C, T.date D, T.price P";

const char kQuery[] =
    "select C, P from I::stock T, T.company C, T.price P where P > 300";

struct Setup {
  Catalog catalog;
  std::unique_ptr<IntegrationSystem> system;

  Setup(int companies, int dates, bool virtual_integration) {
    StockGenConfig cfg;
    cfg.num_companies = companies;
    cfg.num_dates = dates;
    Table s1 = GenerateStockS1(cfg);
    if (virtual_integration) {
      // I is empty; data lives only under the source.
      (void)!catalog
          .PutTable("I", "stock",
                    Table(Schema({{"company", TypeKind::kString},
                                  {"date", TypeKind::kDate},
                                  {"price", TypeKind::kInt}})))
          .ok();
    } else {
      InstallStockS1(&catalog, "I", s1);
    }
    InstallStockS2(&catalog, "s2", s1);
    system = std::make_unique<IntegrationSystem>(&catalog, "I");
    system->RegisterSource(kSourceSql).value();
  }
};

void PrintReproduction() {
  std::printf("=== Fig. 6: answering integration queries from sources ===\n");
  Setup s(5, 10, /*virtual_integration=*/true);
  auto rewriting = s.system->Rewrite(kQuery, /*multiset=*/true);
  std::printf("query on I:  %s\n", kQuery);
  std::printf("rewritten:   %s\n",
              rewriting.value().query->ToString().c_str());
  auto answer = s.system->AnswerGuarded(kQuery, Semantics(/*multiset=*/true));
  std::printf("answered from the legacy source: %zu rows "
              "(I itself holds no data)\n\n",
              answer.value().table.num_rows());
}

void BM_AnswerThroughSource(benchmark::State& state) {
  Setup s(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)),
          /*virtual_integration=*/true);
  for (auto _ : state) {
    // Cold every iteration: the timing covers parse + rewrite + execute.
    s.system->ClearPlanCache();
    auto r = s.system->AnswerGuarded(kQuery, Semantics(/*multiset=*/true));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_AnswerThroughSource)->Args({10, 100})->Args({50, 100});

void BM_AnswerFromLocalData(benchmark::State& state) {
  // No sources can answer faster than the local copy; this measures the
  // floor the rewriting competes with.
  Setup s(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)),
          /*virtual_integration=*/false);
  QueryEngine engine(&s.catalog, "I");
  for (auto _ : state) {
    auto r = engine.ExecuteSql(kQuery);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_AnswerFromLocalData)->Args({10, 100})->Args({50, 100});

void BM_RewriteOnly(benchmark::State& state) {
  Setup s(static_cast<int>(state.range(0)), 10, true);
  for (auto _ : state) {
    auto r = s.system->Rewrite(kQuery, /*multiset=*/true);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RewriteOnly)->Arg(10)->Arg(50);

}  // namespace
}  // namespace dynview

int main(int argc, char** argv) {
  dynview::PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
