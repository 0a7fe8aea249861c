// Compiled query path: what the fingerprinted plan cache and prepared
// queries buy on the Fig. 6 integration workload. Three regimes per query:
//
//   cold      — plan cache cleared before every answer: full parse →
//               fingerprint → Alg. 5.1 rewrite → expression compile → exec;
//   warm      — every answer is a cache hit: clone the cached rewriting,
//               reuse its compiled programs, exec;
//   prepared  — ExecutePrepared on a pre-parsed template (no SQL text on
//               the hot path at all).
//
// The repeat-rate series answers the deployment question: at a repeat rate
// of r, each distinct query is answered r times per cache clear, so the
// amortized per-query cost interpolates between cold (r=1) and warm (r→∞).
// run_experiments.sh gates warm-vs-cold at repeat rate 100 on ≥3×.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "integration/integration.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

constexpr char kSourceSql[] =
    "create view s2::C(date, price) as "
    "select D, P from I::stock T, T.company C, T.date D, T.price P";

const char kQuery[] =
    "select C, P from I::stock T, T.company C, T.price P where P > 300";

const char kPreparedQuery[] =
    "select C, P from I::stock T, T.company C, T.price P where P > ?";

struct Setup {
  Catalog catalog;
  std::unique_ptr<IntegrationSystem> system;

  /// `decoy_sources` registers that many sources that cannot answer kQuery
  /// (they drop the price attribute) BEFORE the one that can — the Fig. 6
  /// federation shape where Alg. 5.1 probes down the registration list on
  /// every cold plan. The cache amortizes exactly that probing.
  Setup(int companies, int dates, int decoy_sources = 0) {
    StockGenConfig cfg;
    cfg.num_companies = companies;
    cfg.num_dates = dates;
    Table s1 = GenerateStockS1(cfg);
    // I is virtual: the data lives only under the s2 source (Fig. 6).
    (void)!catalog
        .PutTable("I", "stock",
                  Table(Schema({{"company", TypeKind::kString},
                                {"date", TypeKind::kDate},
                                {"price", TypeKind::kInt}})))
        .ok();
    InstallStockS2(&catalog, "s2", s1);
    system = std::make_unique<IntegrationSystem>(&catalog, "I");
    for (int i = 0; i < decoy_sources; ++i) {
      std::string name = "d" + std::to_string(i);
      (void)!catalog
          .PutTable(name, "dates",
                    Table(Schema({{"company", TypeKind::kString},
                                  {"date", TypeKind::kDate}})))
          .ok();
      system
          ->RegisterSource("create view " + name +
                           "::dates(date) as select D from I::stock T, "
                           "T.company C, T.date D")
          .value();
    }
    system->RegisterSource(kSourceSql).value();
  }
};

AnswerOptions Multiset() {
  AnswerOptions opts;
  opts.multiset = true;
  return opts;
}

void PrintReproduction() {
  std::printf("=== Compiled query path: plan cache + prepared queries ===\n");
  Setup s(10, 100);
  auto cold = s.system->AnswerGuarded(kQuery, Multiset());
  auto warm = s.system->AnswerGuarded(kQuery, Multiset());
  std::printf("query:        %s\n", kQuery);
  std::printf("fingerprint:  %s\n", cold.value().plan_fingerprint.c_str());
  std::printf("cold answer:  plan_cached=%d, %zu rows\n",
              cold.value().plan_cached ? 1 : 0, cold.value().table.num_rows());
  std::printf("warm answer:  plan_cached=%d, %zu rows\n",
              warm.value().plan_cached ? 1 : 0, warm.value().table.num_rows());
  PlanCacheStats stats = s.system->plan_cache_stats();
  std::printf("plan cache:   hits=%llu misses=%llu\n\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));
}

/// Cold path: every answer re-plans (the pre-plan-cache cost).
void BM_AnswerCold(benchmark::State& state) {
  Setup s(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  for (auto _ : state) {
    s.system->ClearPlanCache();
    auto r = s.system->AnswerGuarded(kQuery, Multiset());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnswerCold)->Args({10, 100})->Args({50, 100});

/// Warm path: every answer is a plan-cache hit.
void BM_AnswerWarm(benchmark::State& state) {
  Setup s(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  (void)!s.system->AnswerGuarded(kQuery, Multiset()).ok();  // Prime.
  for (auto _ : state) {
    auto r = s.system->AnswerGuarded(kQuery, Multiset());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnswerWarm)->Args({10, 100})->Args({50, 100});

/// Repeat-rate series: r answers per cache clear; per-query cost amortizes
/// one cold plan over r executions. items_per_second is the comparable
/// per-query figure across rates.
void BM_AnswerRepeatRate(benchmark::State& state) {
  // The small Fig. 6 instance with a 7-source federation: planning (parse ->
  // rewrite -> probe sources -> compile) is the dominant per-query term,
  // which is exactly what the cache amortizes.
  Setup s(5, 10, /*decoy_sources=*/6);
  const int repeat = static_cast<int>(state.range(0));
  for (auto _ : state) {
    s.system->ClearPlanCache();
    for (int i = 0; i < repeat; ++i) {
      auto r = s.system->AnswerGuarded(kQuery, Multiset());
      benchmark::DoNotOptimize(r);
    }
  }
  state.SetItemsProcessed(state.iterations() * repeat);
}
BENCHMARK(BM_AnswerRepeatRate)->Arg(1)->Arg(10)->Arg(100);

/// Prepared repeats: template parsed once, every execution substitutes and
/// hits the plan cache (after the first).
void BM_ExecutePrepared(benchmark::State& state) {
  Setup s(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  auto prepared = s.system->Prepare(kPreparedQuery).value();
  (void)!s.system->ExecutePrepared(*prepared, {Value::Int(300)}, Multiset())
      .ok();  // Prime.
  for (auto _ : state) {
    auto r =
        s.system->ExecutePrepared(*prepared, {Value::Int(300)}, Multiset());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecutePrepared)->Args({10, 100})->Args({50, 100});

/// Prepared repeat-rate series, the ExecutePrepared counterpart of
/// BM_AnswerRepeatRate.
void BM_PreparedRepeatRate(benchmark::State& state) {
  Setup s(5, 10, /*decoy_sources=*/6);
  auto prepared = s.system->Prepare(kPreparedQuery).value();
  const int repeat = static_cast<int>(state.range(0));
  for (auto _ : state) {
    s.system->ClearPlanCache();
    for (int i = 0; i < repeat; ++i) {
      auto r =
          s.system->ExecutePrepared(*prepared, {Value::Int(300)}, Multiset());
      benchmark::DoNotOptimize(r);
    }
  }
  state.SetItemsProcessed(state.iterations() * repeat);
}
BENCHMARK(BM_PreparedRepeatRate)->Arg(1)->Arg(10)->Arg(100);

/// Expression evaluation in isolation: the engine's compiled programs on
/// the direct Fig. 6 scan (no plan cache involved). The predicate is
/// deliberately wide — flat programs pay in proportion to ops per row
/// (slot-aliased operands, no per-row tree walk or Value copies).
const char kEngineQuery[] =
    "select C, P from local::stock T, T.company C, T.price P "
    "where (P * 3 + 7) - P / 2 > 400 and not (P = 444) "
    "and (C like '%oA%' or C like '%oB%' or P + P > 500)";

void BM_EngineCompiled(benchmark::State& state) {
  Setup s(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  StockGenConfig cfg;
  cfg.num_companies = static_cast<int>(state.range(0));
  cfg.num_dates = static_cast<int>(state.range(1));
  InstallStockS1(&s.catalog, "local", GenerateStockS1(cfg));
  QueryEngine engine(&s.catalog, "local");
  for (auto _ : state) {
    auto r = engine.ExecuteSql(kEngineQuery);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EngineCompiled)->Args({50, 100});

}  // namespace
}  // namespace dynview

int main(int argc, char** argv) {
  dynview::PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
