// Reader cost of the versioned catalog (MVCC-lite): snapshot acquisition,
// reads through a pinned snapshot vs. a fresh snapshot per access, writer
// commit cost, and — the headline number — query throughput while a writer
// thread commits continuously. Writers never block readers, so the
// under-mutation trajectory must track the quiescent one; the gate in
// bench/gates.txt warns above 2% reader overhead and fails above 10%.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <thread>

#include "engine/query_engine.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

// Fan-out over s2 — the mutator churns an unrelated database, so the work a
// reader does is identical in both modes; only the head pointer moves.
const char kFanOut[] =
    "select R, D, P from s2 -> R, R T, T.date D, T.price P";

void InstallWorkload(Catalog* catalog) {
  StockGenConfig cfg;
  cfg.num_companies = 10;
  cfg.num_dates = 50;
  Table s1 = GenerateStockS1(cfg);
  InstallStockS1(catalog, "I", s1).ToString();
  InstallStockS2(catalog, "s2", s1).ToString();
}

Table ChurnTable(int i) {
  Table t(Schema({{"v", TypeKind::kInt}}));
  t.AppendRowUnchecked({Value::Int(i)});
  return t;
}

// Overwrites w::churn in place each commit: constant catalog size, so the
// bench isolates commit/publish cost from data growth.
uint64_t ChurnOnce(Catalog* catalog, int i) {
  auto v = catalog->Mutate([&](CatalogTxn& txn) -> Status {
    Database* db = txn.GetOrCreateDatabase("w");
    db->PutTable("churn", ChurnTable(i));
    return Status::OK();
  });
  return v.ok() ? v.value() : 0;
}

void PrintReproduction() {
  std::printf("=== Versioned catalog: readers vs. writers ===\n");
  Catalog catalog;
  InstallWorkload(&catalog);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ChurnOnce(&catalog, i++);
      commits.fetch_add(1, std::memory_order_relaxed);
    }
  });
  QueryEngine engine(&catalog, "s2");
  size_t rows = 0;
  uint64_t first = catalog.version();
  for (int q = 0; q < 50; ++q) {
    rows = engine.ExecuteSql(kFanOut).value().num_rows();
  }
  uint64_t last = catalog.version();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  std::printf(
      "50 fan-out queries answered (%zu rows each) while the writer "
      "published %llu versions (v%llu -> v%llu); no query blocked or "
      "failed.\n\n",
      rows, static_cast<unsigned long long>(commits.load()),
      static_cast<unsigned long long>(first),
      static_cast<unsigned long long>(last));
}

void BM_SnapshotAcquire(benchmark::State& state) {
  Catalog catalog;
  InstallWorkload(&catalog);
  for (auto _ : state) {
    auto snap = catalog.Snapshot();
    benchmark::DoNotOptimize(snap);
  }
}
BENCHMARK(BM_SnapshotAcquire);

void BM_ResolveViaPinnedSnapshot(benchmark::State& state) {
  Catalog catalog;
  InstallWorkload(&catalog);
  auto snap = catalog.Snapshot();
  for (auto _ : state) {
    auto t = snap->ResolveTable("s2", "coa");
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_ResolveViaPinnedSnapshot);

void BM_ResolveFreshSnapshotPerRead(benchmark::State& state) {
  Catalog catalog;
  InstallWorkload(&catalog);
  for (auto _ : state) {
    auto t = catalog.ResolveTable("s2", "coa");
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_ResolveFreshSnapshotPerRead);

void BM_MutateCommit(benchmark::State& state) {
  Catalog catalog;
  InstallWorkload(&catalog);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChurnOnce(&catalog, i++));
  }
}
BENCHMARK(BM_MutateCommit);

// The gated pair runs the reader serially, so the calling thread's CPU
// time is the whole reader cost. On a pool, how much of the fan-out the
// calling thread runs itself depends on how busy the other cores are, and
// the writer thread keeps one of them busy.
ExecConfig SerialReader() {
  ExecConfig exec;
  exec.num_threads = 1;
  return exec;
}

void BM_FanOutQuiescent(benchmark::State& state) {
  Catalog catalog;
  InstallWorkload(&catalog);
  QueryEngine engine(&catalog, "s2", SerialReader());
  for (auto _ : state) {
    auto r = engine.ExecuteSql(kFanOut);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FanOutQuiescent);

void BM_FanOutUnderMutation(benchmark::State& state) {
  Catalog catalog;
  InstallWorkload(&catalog);
  QueryEngine engine(&catalog, "s2", SerialReader());
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ChurnOnce(&catalog, i++);
      commits.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (auto _ : state) {
    auto r = engine.ExecuteSql(kFanOut);
    benchmark::DoNotOptimize(r);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  state.counters["commits"] =
      benchmark::Counter(static_cast<double>(commits.load()));
}
BENCHMARK(BM_FanOutUnderMutation);

}  // namespace
}  // namespace dynview

int main(int argc, char** argv) {
  dynview::PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
