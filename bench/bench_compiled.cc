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
// bench/gates.txt holds the repeat-1000 cost within 1.25× of the warm cost
// on the same instance (args 5/10/6): the cache amortizes planning. A cold
// plan cost about 14 warm answers when the gate was set, so at r=1000 it
// adds ~1.3%, and neither a cheaper cold path nor a cheaper warm one can
// trip the gate.

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
    // Serial execution: what the cache amortizes is planning, and pool
    // wake-ups would add scheduling noise to the wall time the gate reads.
    IntegrationOptions options;
    options.exec.num_threads = 1;
    system = std::make_unique<IntegrationSystem>(&catalog, "I", options);
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

/// Args: companies, dates, decoy sources.
Setup MakeSetup(const benchmark::State& state) {
  return Setup(static_cast<int>(state.range(0)),
               static_cast<int>(state.range(1)),
               static_cast<int>(state.range(2)));
}

/// Cold path: every answer re-plans (the pre-plan-cache cost).
void BM_AnswerCold(benchmark::State& state) {
  Setup s = MakeSetup(state);
  for (auto _ : state) {
    s.system->ClearPlanCache();
    auto r = s.system->AnswerGuarded(kQuery, Multiset());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnswerCold)->Args({10, 100, 0})->Args({50, 100, 0})
    ->Args({5, 10, 6});

/// Warm path: every answer is a plan-cache hit.
void BM_AnswerWarm(benchmark::State& state) {
  Setup s = MakeSetup(state);
  (void)!s.system->AnswerGuarded(kQuery, Multiset()).ok();  // Prime.
  for (auto _ : state) {
    auto r = s.system->AnswerGuarded(kQuery, Multiset());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnswerWarm)->Args({10, 100, 0})->Args({50, 100, 0})
    ->Args({5, 10, 6});

/// Repeat-rate series: one answer per iteration and one cache clear per r
/// answers, so the time per iteration is the per-query cost with one cold
/// plan amortized over r executions.
void BM_AnswerRepeatRate(benchmark::State& state) {
  // The small Fig. 6 instance with a 7-source federation: planning (parse ->
  // rewrite -> probe sources -> compile) is the dominant per-query term,
  // which is exactly what the cache amortizes.
  Setup s(5, 10, /*decoy_sources=*/6);
  const int64_t repeat = state.range(0);
  int64_t answered = 0;
  for (auto _ : state) {
    if (answered++ % repeat == 0) s.system->ClearPlanCache();
    auto r = s.system->AnswerGuarded(kQuery, Multiset());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_AnswerRepeatRate)->Arg(1)->Arg(10)->Arg(100)->Arg(1000);

/// Prepared repeats: template parsed once, every execution substitutes and
/// hits the plan cache (after the first).
void BM_ExecutePrepared(benchmark::State& state) {
  Setup s = MakeSetup(state);
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
BENCHMARK(BM_ExecutePrepared)->Args({10, 100, 0})->Args({50, 100, 0})
    ->Args({5, 10, 6});

/// Prepared repeat-rate series, the ExecutePrepared counterpart of
/// BM_AnswerRepeatRate.
void BM_PreparedRepeatRate(benchmark::State& state) {
  Setup s(5, 10, /*decoy_sources=*/6);
  auto prepared = s.system->Prepare(kPreparedQuery).value();
  const int64_t repeat = state.range(0);
  int64_t answered = 0;
  for (auto _ : state) {
    if (answered++ % repeat == 0) s.system->ClearPlanCache();
    auto r =
        s.system->ExecutePrepared(*prepared, {Value::Int(300)}, Multiset());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PreparedRepeatRate)->Arg(1)->Arg(10)->Arg(100)->Arg(1000);

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
