// Query-guard overhead on the paper's workloads: the Fig. 11 Q1 self-join
// and the Fig. 13 Q2 federation join, each evaluated unguarded (null
// QueryContext — the fast path every pre-guard caller gets) and guarded
// with generous limits (deadline + row/byte budgets armed but never
// tripping). The difference is the steady-state cost of deadline checks,
// cancellation polls, and budget accounting; bench/gates.txt warns above 2%
// and fails above 10%.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>

#include "common/query_context.h"
#include "engine/query_engine.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

const char kQ1[] =
    "select C1 from db0::stock T1, db0::stock T2, "
    "T1.company C1, T2.company C2, T1.date D1, T2.date D2, "
    "T1.price P1, T2.price P2 "
    "where D1 = D2 + 1 and P1 > 200 and P2 > 200 and C1 = C2";

const char kQ2[] =
    "select C1, D1, P1 from db0::stock T1, T1.date D1, T1.company C1, "
    "T1.price P1, T1.exch E1, db0::cotype T2, T2.co C2, T2.type Y1 "
    "where E1 = 'nyse' and C1 = C2 and Y1 = 'hitech'";

// Higher-order fan-out over the s2 layout: guards are also checked per
// grounding, so this exercises the enforcement point the join queries miss.
const char kFanOut[] = "select R, D, P from s2 -> R, R T, T.date D, T.price P";

/// Serial execution: the calling thread's CPU time is then the whole query
/// cost, which the gate compares guarded vs unguarded.
ExecConfig Serial() {
  ExecConfig exec;
  exec.num_threads = 1;
  return exec;
}

/// Limits far above what the workloads produce: every check runs, none trips.
QueryGuards GenerousGuards() {
  QueryGuards g;
  g.deadline_ms = 60 * 60 * 1000;
  g.row_budget = 1ull << 40;
  g.byte_budget = 1ull << 50;
  return g;
}

struct Setup {
  Catalog catalog;

  Setup(int companies, int dates) {
    StockGenConfig cfg;
    cfg.num_companies = companies;
    cfg.num_dates = dates;
    InstallDb0(&catalog, "db0", cfg);
    InstallStockS2(&catalog, "s2", GenerateStockS1(cfg));
  }
};

void RunQuery(QueryEngine* engine, const char* sql, bool guarded) {
  std::unique_ptr<QueryContext> qc;
  if (guarded) qc = std::make_unique<QueryContext>(GenerousGuards());
  auto r = engine->ExecuteSql(sql, qc.get());
  benchmark::DoNotOptimize(r);
}

void PrintOverheadPreamble() {
  std::printf("=== Query-guard overhead (unguarded vs armed-but-idle) ===\n");
  struct Case {
    const char* name;
    const char* sql;
    const char* db;
  };
  const Case cases[] = {
      {"Q1 (Fig. 11 self-join)", kQ1, "db0"},
      {"Q2 (Fig. 13 federation join)", kQ2, "db0"},
      {"fan-out (s2 -> R)", kFanOut, "s2"},
  };
  Setup s(20, 100);
  for (const Case& c : cases) {
    QueryEngine engine(&s.catalog, c.db, Serial());
    // Warm-up, then alternate modes to cancel drift; report best-of-N per
    // mode (minimum suppresses scheduler noise, which on a small machine
    // dwarfs the per-check cost being measured).
    RunQuery(&engine, c.sql, false);
    RunQuery(&engine, c.sql, true);
    double best[2] = {1e30, 1e30};
    const int kReps = 25;
    for (int rep = 0; rep < kReps; ++rep) {
      for (int guarded = 0; guarded < 2; ++guarded) {
        auto t0 = std::chrono::steady_clock::now();
        RunQuery(&engine, c.sql, guarded == 1);
        double dt =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        if (dt < best[guarded]) best[guarded] = dt;
      }
    }
    double overhead = (best[1] - best[0]) / best[0] * 100.0;
    std::printf("%-30s unguarded %8.3f ms  guarded %8.3f ms  overhead %+.2f%%\n",
                c.name, best[0] * 1e3, best[1] * 1e3, overhead);
  }
  std::printf("\n");
}

void BM_Q1(benchmark::State& state) {
  Setup s(20, 100);
  QueryEngine engine(&s.catalog, "db0", Serial());
  const bool guarded = state.range(0) != 0;
  for (auto _ : state) RunQuery(&engine, kQ1, guarded);
}
BENCHMARK(BM_Q1)->Arg(0)->Arg(1)->ArgNames({"guarded"});

void BM_Q2(benchmark::State& state) {
  Setup s(20, 100);
  QueryEngine engine(&s.catalog, "db0", Serial());
  const bool guarded = state.range(0) != 0;
  for (auto _ : state) RunQuery(&engine, kQ2, guarded);
}
BENCHMARK(BM_Q2)->Arg(0)->Arg(1)->ArgNames({"guarded"});

void BM_FanOut(benchmark::State& state) {
  Setup s(20, 100);
  QueryEngine engine(&s.catalog, "s2", Serial());
  const bool guarded = state.range(0) != 0;
  for (auto _ : state) RunQuery(&engine, kFanOut, guarded);
}
BENCHMARK(BM_FanOut)->Arg(0)->Arg(1)->ArgNames({"guarded"});

}  // namespace
}  // namespace dynview

int main(int argc, char** argv) {
  dynview::PrintOverheadPreamble();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
