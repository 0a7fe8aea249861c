// Observability overhead: the same fan-out and join queries with (a) no
// observer attached and (b) an observer attached (full spans + counters).
// The gate in bench/gates.txt warns above 2% between (a) and (b) on the
// fan-out workload and fails above 10%. The preamble prints a per-query
// counter dump in the flat name=value form.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/query_context.h"
#include "engine/query_engine.h"
#include "observe/observer.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

constexpr char kFanOutSql[] =
    "select R, D, P from s2 -> R, R T, T.date D, T.price P";
constexpr char kJoinSql[] =
    "select C, Y, P from db0::stock T, T.company C, T.price P, "
    "db0::cotype U, U.co C2, U.type Y where C = C2 and P > 80";

struct Setup {
  Catalog catalog;

  Setup(int companies, int dates) {
    StockGenConfig cfg;
    cfg.num_companies = companies;
    cfg.num_dates = dates;
    Table s1 = GenerateStockS1(cfg);
    InstallStockS2(&catalog, "s2", s1).ok();
    InstallDb0(&catalog, "db0", cfg).ok();
  }
};

ExecConfig Exec() {
  ExecConfig exec;
  exec.num_threads = 4;
  return exec;
}

void PrintCounterDump() {
  Setup s(48, 200);
  QueryEngine engine(&s.catalog, "s2", Exec());
  QueryObserver obs;
  QueryContext qc;
  qc.set_observer(&obs);
  auto r = engine.ExecuteSql(kFanOutSql, &qc);
  std::printf("=== fan-out query counters (48 sources x 200 rows) ===\n%s",
              obs.metrics.ToFlatText().c_str());
  std::printf("trace spans: %zu\n\n", obs.trace.size());
  if (!r.ok()) std::printf("QUERY FAILED: %s\n", r.status().ToString().c_str());
}

void RunFanOut(benchmark::State& state, bool attach_observer) {
  Setup s(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  QueryEngine engine(&s.catalog, "s2", Exec());
  QueryObserver obs;
  QueryContext qc;
  if (attach_observer) qc.set_observer(&obs);
  size_t rows = 0;
  for (auto _ : state) {
    obs.trace.Clear();
    auto r = engine.ExecuteSql(kFanOutSql, &qc);
    benchmark::DoNotOptimize(r);
    if (r.ok()) rows = r.value().num_rows();
  }
  state.counters["rows"] = static_cast<double>(rows);
  if (attach_observer) {
    state.counters["groundings"] = static_cast<double>(
        obs.metrics.Value(counters::kGroundingsEvaluated));
  }
}

void BM_FanOutNoObserver(benchmark::State& state) {
  RunFanOut(state, /*attach_observer=*/false);
}
BENCHMARK(BM_FanOutNoObserver)->Args({48, 200})->Args({96, 400});

void BM_FanOutTraced(benchmark::State& state) {
  RunFanOut(state, /*attach_observer=*/true);
}
BENCHMARK(BM_FanOutTraced)->Args({48, 200})->Args({96, 400});

void RunJoin(benchmark::State& state, bool attach_observer) {
  Setup s(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)));
  QueryEngine engine(&s.catalog, "db0", Exec());
  QueryObserver obs;
  QueryContext qc;
  if (attach_observer) qc.set_observer(&obs);
  for (auto _ : state) {
    obs.trace.Clear();
    auto r = engine.ExecuteSql(kJoinSql, &qc);
    benchmark::DoNotOptimize(r);
  }
}

void BM_JoinNoObserver(benchmark::State& state) {
  RunJoin(state, /*attach_observer=*/false);
}
BENCHMARK(BM_JoinNoObserver)->Args({30, 400});

void BM_JoinTraced(benchmark::State& state) {
  RunJoin(state, /*attach_observer=*/true);
}
BENCHMARK(BM_JoinTraced)->Args({30, 400});

}  // namespace
}  // namespace dynview

int main(int argc, char** argv) {
  dynview::PrintCounterDump();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
