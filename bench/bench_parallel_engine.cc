// Parallel execution substrate: grounding fan-out and partitioned hash-join
// scaling at 1/2/4/8 threads. The preamble measures the fan-out query at
// each thread count and prints speedup vs `num_threads = 1` (the serial
// engine); results are bag-identical at every thread count, so the figures
// below are pure-performance trajectories. On a single-core host the
// speedups collapse to ~1×; run on multi-core hardware for the scaling
// curve.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>

#include "common/thread_pool.h"
#include "engine/operators.h"
#include "engine/query_engine.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

// 48 relations of `num_dates` rows each: a wide grounding fan-out (one
// first-order query per company relation).
constexpr char kFanOutSql[] =
    "select R, D, P from s2 -> R, R T, T.date D, T.price P";

struct Setup {
  Catalog catalog;

  explicit Setup(int companies, int dates) {
    StockGenConfig cfg;
    cfg.num_companies = companies;
    cfg.num_dates = dates;
    Table s1 = GenerateStockS1(cfg);
    InstallStockS1(&catalog, "s1", s1).ok();
    InstallStockS2(&catalog, "s2", s1).ok();
  }
};

ExecConfig ThreadsConfig(int threads) {
  ExecConfig exec;
  exec.num_threads = static_cast<size_t>(threads);
  return exec;
}

/// Two `rows`-row tables joined on a shared integer key (~4 matches per
/// probe row), large enough to engage the partitioned build/probe.
struct JoinSetup {
  Table left;
  Table right;

  explicit JoinSetup(int rows)
      : left(Schema({Column("id", TypeKind::kInt),
                     Column("lpay", TypeKind::kInt)})),
        right(Schema({Column("id", TypeKind::kInt),
                      Column("rpay", TypeKind::kInt)})) {
    left.Reserve(rows);
    right.Reserve(rows);
    for (int i = 0; i < rows; ++i) {
      left.AppendRowUnchecked(
          {Value::Int(i % (rows / 4)), Value::Int(i)});
      right.AppendRowUnchecked(
          {Value::Int(i % (rows / 4)), Value::Int(-i)});
    }
  }
};

void PrintReproduction() {
  std::printf("=== Parallel grounding execution: speedup vs serial ===\n");
  Setup s(48, 400);
  std::printf("query: %s  (48 groundings x 400 rows)\n", kFanOutSql);
  double serial_ms = 0;
  for (int threads : {1, 2, 4, 8}) {
    QueryEngine engine(&s.catalog, "s2", ThreadsConfig(threads));
    // Warm up once (creates the pool, faults in the data), then time.
    engine.ExecuteSql(kFanOutSql).ok();
    constexpr int kReps = 5;
    auto t0 = std::chrono::steady_clock::now();
    size_t rows = 0;
    for (int r = 0; r < kReps; ++r) {
      rows = engine.ExecuteSql(kFanOutSql).value().num_rows();
    }
    auto t1 = std::chrono::steady_clock::now();
    double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count() / kReps;
    if (threads == 1) serial_ms = ms;
    std::printf("  threads=%d  %8.2f ms/query  speedup %.2fx  (%zu rows)\n",
                threads, ms, serial_ms / ms, rows);
  }
  std::printf("\n");
}

void BM_GroundingFanOut(benchmark::State& state) {
  Setup s(48, 400);
  QueryEngine engine(&s.catalog, "s2",
                     ThreadsConfig(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    auto r = engine.ExecuteSql(kFanOutSql);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GroundingFanOut)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_PartitionedHashJoin(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  JoinSetup s(200000);
  std::unique_ptr<ThreadPool> pool;
  ExecContext ctx;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<size_t>(threads - 1));
    ctx.pool = pool.get();
  }
  const std::vector<int> keys{0};
  for (auto _ : state) {
    auto r = HashJoin(s.left, s.right, keys, keys, ctx);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PartitionedHashJoin)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// Morsel-driven scan+filter through the engine: one big base table, a
// selective pushdown predicate.
void BM_MorselScanFilter(benchmark::State& state) {
  Setup s(200, 1000);  // 200k-row s1.
  QueryEngine engine(&s.catalog, "s1",
                     ThreadsConfig(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    auto r = engine.ExecuteSql(
        "select * from s1::stock T where T.price > 350");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MorselScanFilter)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
}  // namespace dynview

int main(int argc, char** argv) {
  dynview::PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
