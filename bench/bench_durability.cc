// Durability cost and recovery speed: snapshot encode/write/load
// throughput, per-commit WAL append cost (with and without fsync), and
// full recovery time as a function of WAL length. Every recovery run
// re-checks the crash-consistency oracle (exact head version + byte
// identity of the recovered table) and reports it as the `recovery_ok`
// counter — run_experiments.sh gates on it.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "relational/catalog.h"
#include "relational/csv.h"
#include "storage/durable_catalog.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

int dir_counter = 0;

/// A fresh scratch directory per benchmark setup (removed on destruction).
struct ScratchDir {
  std::string path;
  ScratchDir() {
    path = "/tmp/dynview_bench_durable_" + std::to_string(::getpid()) + "_" +
           std::to_string(dir_counter++);
    std::string cmd = "rm -rf '" + path + "' && mkdir -p '" + path + "'";
    (void)!std::system(cmd.c_str());
  }
  ~ScratchDir() {
    std::string cmd = "rm -rf '" + path + "'";
    (void)!std::system(cmd.c_str());
  }
};

/// A federation-shaped snapshot image: `companies` stock relations of
/// `dates` rows each under one database.
SnapshotData MakeSnapshot(int companies, int dates) {
  StockGenConfig cfg;
  cfg.num_companies = companies;
  cfg.num_dates = dates;
  Catalog catalog;
  InstallStockS2(&catalog, "s2", GenerateStockS1(cfg));
  return CaptureSnapshot(*catalog.Snapshot());
}

void BM_SnapshotEncode(benchmark::State& state) {
  SnapshotData data = MakeSnapshot(static_cast<int>(state.range(0)), 250);
  std::string image;
  for (auto _ : state) {
    image.clear();
    EncodeSnapshotImage(data, &image);
    benchmark::DoNotOptimize(image.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(image.size()));
}
BENCHMARK(BM_SnapshotEncode)->Arg(10)->Arg(100);

void BM_SnapshotWrite(benchmark::State& state) {
  ScratchDir dir;
  SnapshotData data = MakeSnapshot(static_cast<int>(state.range(0)), 250);
  std::string image;
  EncodeSnapshotImage(data, &image);
  std::string path = dir.path + "/" + SnapshotFileName(data.catalog_version);
  for (auto _ : state) {
    Status st = WriteSnapshotFile(data, path);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(image.size()));
}
BENCHMARK(BM_SnapshotWrite)->Arg(10)->Arg(100);

void BM_SnapshotLoad(benchmark::State& state) {
  ScratchDir dir;
  SnapshotData data = MakeSnapshot(static_cast<int>(state.range(0)), 250);
  std::string path = dir.path + "/" + SnapshotFileName(data.catalog_version);
  (void)!WriteSnapshotFile(data, path).ok();
  std::string image;
  EncodeSnapshotImage(data, &image);
  for (auto _ : state) {
    auto r = ReadSnapshotFile(path);
    if (!r.ok()) state.SkipWithError(r.status().ToString().c_str());
    benchmark::DoNotOptimize(r);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(image.size()));
}
BENCHMARK(BM_SnapshotLoad)->Arg(10)->Arg(100);

/// One deterministic single-table commit (the WAL payload is one small
/// table; arg toggles fsync-per-append — the durability contract vs the
/// raw append path).
void BM_WalAppendCommit(benchmark::State& state) {
  ScratchDir dir;
  Catalog catalog;
  auto wal = WalWriter::Open(dir.path + "/wal.log", state.range(0) != 0);
  if (!wal.ok()) {
    state.SkipWithError(wal.status().ToString().c_str());
    return;
  }
  catalog.SetCommitSink(wal.value().get());
  Table t(Schema({{"k", TypeKind::kInt}, {"v", TypeKind::kString}}));
  t.AppendRowUnchecked({Value::Int(1), Value::String("payload")});
  for (auto _ : state) {
    Status st = catalog.PutTable("bench", "t", t);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  catalog.SetCommitSink(nullptr);
  state.counters["wal_bytes"] =
      static_cast<double>(wal.value()->bytes_written());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_WalAppendCommit)->Arg(0)->Arg(1);

/// Full recovery from a WAL of `n` commit records (no snapshot), with the
/// crash-consistency oracle checked on every iteration: recovered head ==
/// pre-crash head and the recovered table is byte-identical.
void BM_Recover(benchmark::State& state) {
  ScratchDir dir;
  Catalog catalog;
  {
    auto wal = WalWriter::Open(dir.path + "/wal.log", /*fsync_each=*/false);
    if (!wal.ok()) {
      state.SkipWithError(wal.status().ToString().c_str());
      return;
    }
    catalog.SetCommitSink(wal.value().get());
    for (int i = 0; i < state.range(0); ++i) {
      Table t(Schema({{"k", TypeKind::kInt}}));
      for (int j = 0; j <= i % 32; ++j) t.AppendRowUnchecked({Value::Int(j)});
      (void)!catalog.PutTable("bench", "t" + std::to_string(i % 8),
                              std::move(t))
          .ok();
    }
    catalog.SetCommitSink(nullptr);
  }
  std::string expect_csv =
      TableToCsvTyped(*catalog.ResolveTable("bench", "t0").value());
  bool all_ok = true;
  for (auto _ : state) {
    Catalog recovered;
    RecoveryReport report;
    Status st = recovered.Recover(dir.path, &report);
    bool ok = st.ok() && report.head_version == catalog.version() &&
              !report.torn_tail &&
              TableToCsvTyped(*recovered.ResolveTable("bench", "t0").value()) ==
                  expect_csv;
    all_ok = all_ok && ok;
    benchmark::DoNotOptimize(recovered);
  }
  state.counters["recovery_ok"] = all_ok ? 1.0 : 0.0;
  state.counters["replayed_records"] = static_cast<double>(state.range(0));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Recover)->Arg(64)->Arg(512)->Arg(2048);

/// Checkpoint-then-recover: how much a snapshot shortens recovery of the
/// same history (same 512-commit history as BM_Recover/512, snapshotted).
void BM_RecoverFromCheckpoint(benchmark::State& state) {
  ScratchDir dir;
  Catalog catalog;
  {
    auto durable = DurableCatalog::Open(&catalog, dir.path, {false}, {});
    if (!durable.ok()) {
      state.SkipWithError(durable.status().ToString().c_str());
      return;
    }
    for (int i = 0; i < 512; ++i) {
      Table t(Schema({{"k", TypeKind::kInt}}));
      for (int j = 0; j <= i % 32; ++j) t.AppendRowUnchecked({Value::Int(j)});
      (void)!catalog.PutTable("bench", "t" + std::to_string(i % 8),
                              std::move(t))
          .ok();
    }
    (void)!durable.value()->Close().ok();
  }
  bool all_ok = true;
  for (auto _ : state) {
    Catalog recovered;
    RecoveryReport report;
    Status st = recovered.Recover(dir.path, &report);
    all_ok = all_ok && st.ok() && report.recovered_snapshot &&
             report.head_version == catalog.version();
    benchmark::DoNotOptimize(recovered);
  }
  state.counters["recovery_ok"] = all_ok ? 1.0 : 0.0;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RecoverFromCheckpoint);

void PrintReproduction() {
  std::printf("=== Durable catalog: WAL + snapshot crash recovery ===\n");
  ScratchDir dir;
  Catalog catalog;
  auto durable = DurableCatalog::Open(&catalog, dir.path, {}, {});
  if (!durable.ok()) return;
  StockGenConfig cfg;
  InstallStockS2(&catalog, "s2", GenerateStockS1(cfg));
  uint64_t head = catalog.version();
  std::printf("pre-crash head:   v%llu (%zu databases)\n",
              static_cast<unsigned long long>(head), catalog.num_databases());
  // Crash without a clean close: recovery must replay the WAL records the
  // initial (empty) checkpoint did not cover.
  (void)!durable.value()->Close().ok();
  durable.value().reset();
  Catalog recovered;
  RecoveryReport report;
  Status st = recovered.Recover(dir.path, &report);
  std::printf("recovery:         %s\n", st.ToString().c_str());
  std::printf("recovered head:   v%llu (snapshot v%llu + %llu replayed)\n",
              static_cast<unsigned long long>(report.head_version),
              static_cast<unsigned long long>(report.snapshot_version),
              static_cast<unsigned long long>(report.replayed_records));
  std::printf("oracle:           head %s, torn_tail=%d\n\n",
              report.head_version == head ? "EXACT" : "MISMATCH",
              report.torn_tail ? 1 : 0);
}

}  // namespace
}  // namespace dynview

int main(int argc, char** argv) {
  dynview::PrintReproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
