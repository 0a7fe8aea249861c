// Durability suite (ctest -L durability): snapshot round-trip
// byte-identity, WAL replay to the exact pre-crash head version, torn-tail
// truncation, checkpoint-then-recover equivalence, failpoint coverage for
// wal.append / wal.fsync / snapshot.write / snapshot.load (including
// torn-write mode), integration-level recovery of sources, indexes and
// maintainer fences, and a crash-recovery chaos oracle at 1 and 8 mutator
// threads: the recovered catalog must be byte-identical to a serial
// re-execution of the committed prefix. Per-table commit records: a
// checksummed frame that cannot be read (unknown kind, the old kind-1
// format, a version gap behind a skipped snapshot, a splice that does not
// fit, a zero-column put claiming rows) refuses recovery and leaves the log
// untouched; a seeded random history recovers its exact head after every
// commit; and its commit frames, damaged under a recomputed CRC, end in a
// refusal or a head that extends the intact prefix.
//
// scripts/run_experiments.sh additionally runs this binary under
// ThreadSanitizer alongside the chaos suite; CI runs it under ASan+UBSan
// and TSan.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/str_util.h"
#include "evolve/evolution.h"
#include "integration/integration.h"
#include "relational/catalog.h"
#include "relational/csv.h"
#include "schemasql/view_maintainer.h"
#include "storage/codec.h"
#include "storage/durable_catalog.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

/// AnswerGuarded options for bag (multiset) or set semantics.
AnswerOptions Semantics(bool multiset) {
  AnswerOptions options;
  options.multiset = multiset;
  return options;
}

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::DisarmAll();
    dir_ = "/tmp/dynview_durable_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter_++);
  }

  void TearDown() override {
    FailPoints::DisarmAll();
    std::string cmd = "rm -rf '" + dir_ + "'";
    (void)!std::system(cmd.c_str());
  }

  std::string dir_;
  static int counter_;
};

int DurabilityTest::counter_ = 0;

/// A small heterogeneous table exercising every value kind (incl. NULLs,
/// round-trip-hostile doubles, and strings that look like other types).
Table MixedTable() {
  Table t(Schema({{"i", TypeKind::kInt},
                  {"d", TypeKind::kDouble},
                  {"s", TypeKind::kString},
                  {"b", TypeKind::kBool},
                  {"when", TypeKind::kDate}}));
  t.AppendRowUnchecked({Value::Int(1), Value::Double(0.1),
                        Value::String("1997-01-01"), Value::Bool(true),
                        Value::MakeDate(Date::Parse("1998-06-02").value())});
  t.AppendRowUnchecked({Value::Int(-7), Value::Double(1.0 / 3.0),
                        Value::String("42"), Value::Bool(false),
                        Value::MakeDate(Date::Parse("1997-12-31").value())});
  t.AppendRowUnchecked({Value::Null(), Value::Null(),
                        Value::String("quote \" comma, nl\n"), Value::Null(),
                        Value::Null()});
  return t;
}

/// The byte-level equality oracle used throughout: two catalogs are
/// byte-identical when they hold the same databases and every table
/// serializes to the same typed CSV bytes.
void ExpectCatalogsByteIdentical(const Catalog& a, const Catalog& b) {
  ASSERT_EQ(a.DatabaseNames(), b.DatabaseNames());
  for (const std::string& db : a.DatabaseNames()) {
    const Database* da = a.GetDatabase(db).value();
    const Database* db_b = b.GetDatabase(db).value();
    ASSERT_EQ(da->TableNames(), db_b->TableNames()) << db;
    for (const std::string& rel : da->TableNames()) {
      EXPECT_EQ(TableToCsvTyped(*da->GetTable(rel).value()),
                TableToCsvTyped(*db_b->GetTable(rel).value()))
          << db << "::" << rel;
    }
  }
}

// ---- Snapshot files --------------------------------------------------------

TEST_F(DurabilityTest, SnapshotImageRoundTripsByteIdentically) {
  SnapshotData data;
  data.catalog_version = 42;
  RecoveredDatabase rd;
  rd.name = "mixed";
  rd.version = 40;
  rd.db.PutTable("t", MixedTable());
  data.databases.push_back(std::move(rd));
  data.extras.emplace_back("source", std::string("opaque\0payload", 14));
  data.extras.emplace_back("index", "second");

  std::string image1, image2;
  EncodeSnapshotImage(data, &image1);
  EncodeSnapshotImage(data, &image2);
  EXPECT_EQ(image1, image2) << "snapshot encoding must be deterministic";

  ASSERT_TRUE(::mkdir(dir_.c_str(), 0755) == 0);
  std::string path = dir_ + "/" + SnapshotFileName(42);
  ASSERT_TRUE(WriteSnapshotFile(data, path).ok());
  auto read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().catalog_version, 42u);
  ASSERT_EQ(read.value().databases.size(), 1u);
  EXPECT_EQ(read.value().databases[0].version, 40u);
  EXPECT_EQ(read.value().extras, data.extras);

  // Re-encoding the decoded image reproduces the original bytes.
  std::string image3;
  EncodeSnapshotImage(read.value(), &image3);
  EXPECT_EQ(image1, image3);
  // And the decoded table really is the original, cell for cell.
  EXPECT_EQ(
      TableToCsvTyped(*read.value().databases[0].db.GetTable("t").value()),
      TableToCsvTyped(MixedTable()));
}

TEST_F(DurabilityTest, CorruptSnapshotFailsValidationNotCrash) {
  SnapshotData data;
  data.catalog_version = 7;
  ASSERT_TRUE(::mkdir(dir_.c_str(), 0755) == 0);
  std::string path = dir_ + "/" + SnapshotFileName(7);
  RecoveredDatabase rd;
  rd.name = "db";
  rd.db.PutTable("t", MixedTable());
  data.databases.push_back(std::move(rd));
  ASSERT_TRUE(WriteSnapshotFile(data, path).ok());

  // Flip one payload byte: the section CRC must catch it.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  bytes[bytes.size() - 3] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto read = ReadSnapshotFile(path);
  EXPECT_FALSE(read.ok());

  // Truncated header: also a clean error.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), 10);
  }
  EXPECT_FALSE(ReadSnapshotFile(path).ok());
}

TEST_F(DurabilityTest, SnapshotListingIsNewestFirst) {
  ASSERT_TRUE(::mkdir(dir_.c_str(), 0755) == 0);
  for (uint64_t v : {5u, 12u, 7u}) {
    SnapshotData data;
    data.catalog_version = v;
    ASSERT_TRUE(
        WriteSnapshotFile(data, dir_ + "/" + SnapshotFileName(v)).ok());
  }
  // Stray files are ignored.
  { std::ofstream junk(dir_ + "/snapshot-junk.dvsnap"); junk << "x"; }
  { std::ofstream tmp(dir_ + "/" + SnapshotFileName(99) + ".tmp"); tmp << "x"; }
  auto files = ListSnapshotFiles(dir_);
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].first, 12u);
  EXPECT_EQ(files[1].first, 7u);
  EXPECT_EQ(files[2].first, 5u);
  EXPECT_EQ(ListSnapshotFiles(dir_ + "/does_not_exist").size(), 0u);
}

// ---- WAL replay ------------------------------------------------------------

/// Applies `n` deterministic single-table mutations to `catalog`.
Status ApplyOps(Catalog* catalog, int n) {
  for (int i = 0; i < n; ++i) {
    Table t(Schema({{"k", TypeKind::kInt}, {"v", TypeKind::kString}}));
    for (int j = 0; j <= i; ++j) {
      t.AppendRowUnchecked(
          {Value::Int(j), Value::String("row" + std::to_string(j))});
    }
    DV_RETURN_IF_ERROR(catalog->PutTable("wal_db", "t", std::move(t)));
  }
  return Status::OK();
}

TEST_F(DurabilityTest, WalReplayRestoresExactHeadVersion) {
  Catalog catalog;
  {
    auto wal = WalWriter::Open(dir_ + "_nodir/wal.log");
    EXPECT_FALSE(wal.ok()) << "missing directory must fail cleanly";
  }
  ASSERT_TRUE(::mkdir(dir_.c_str(), 0755) == 0);
  auto wal = WalWriter::Open(dir_ + "/wal.log");
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  catalog.SetCommitSink(wal.value().get());
  ASSERT_TRUE(ApplyOps(&catalog, 5).ok());
  ASSERT_TRUE(catalog.DropTable("wal_db", "t").ok());
  uint64_t head = catalog.version();
  EXPECT_EQ(wal.value()->appends(), 6u);
  catalog.SetCommitSink(nullptr);

  // "Crash": recover a fresh catalog from the directory (WAL only — no
  // snapshot was ever written).
  Catalog recovered;
  RecoveryReport report;
  ASSERT_TRUE(recovered.Recover(dir_, &report).ok());
  EXPECT_FALSE(report.recovered_snapshot);
  EXPECT_EQ(report.head_version, head);
  EXPECT_EQ(recovered.version(), head);
  EXPECT_EQ(report.replayed_records, 6u);
  EXPECT_FALSE(report.torn_tail);
  ExpectCatalogsByteIdentical(catalog, recovered);
  // The drop really replayed: the table is gone but the database exists.
  EXPECT_FALSE(recovered.ResolveTable("wal_db", "t").ok());
  EXPECT_TRUE(recovered.HasDatabase("wal_db"));
}

TEST_F(DurabilityTest, TornTailIsTruncatedWithWarningNeverError) {
  Catalog catalog;
  ASSERT_TRUE(::mkdir(dir_.c_str(), 0755) == 0);
  std::string wal_path = dir_ + "/wal.log";
  {
    auto wal = WalWriter::Open(wal_path);
    ASSERT_TRUE(wal.ok());
    catalog.SetCommitSink(wal.value().get());
    ASSERT_TRUE(ApplyOps(&catalog, 3).ok());
    catalog.SetCommitSink(nullptr);
  }
  // Simulate a crash mid-append: garbage tail shorter than a valid frame's
  // claimed length.
  struct stat st;
  ASSERT_EQ(::stat(wal_path.c_str(), &st), 0);
  uint64_t good_size = static_cast<uint64_t>(st.st_size);
  {
    std::ofstream out(wal_path, std::ios::binary | std::ios::app);
    const char junk[] = "\xff\xff\xff\x7f torn!";
    out.write(junk, sizeof(junk) - 1);
  }

  Catalog recovered;
  RecoveryReport report;
  ASSERT_TRUE(recovered.Recover(dir_, &report).ok());
  EXPECT_TRUE(report.torn_tail);
  EXPECT_GT(report.torn_bytes, 0u);
  EXPECT_EQ(report.head_version, catalog.version());
  ASSERT_FALSE(report.warnings.empty());
  EXPECT_NE(report.warnings.back().find("torn"), std::string::npos);
  ExpectCatalogsByteIdentical(catalog, recovered);

  // The tail was physically truncated: a second recovery is clean.
  ASSERT_EQ(::stat(wal_path.c_str(), &st), 0);
  EXPECT_EQ(static_cast<uint64_t>(st.st_size), good_size);
  Catalog again;
  RecoveryReport report2;
  ASSERT_TRUE(again.Recover(dir_, &report2).ok());
  EXPECT_FALSE(report2.torn_tail);
  EXPECT_EQ(report2.head_version, catalog.version());
}

// ---- Failpoints: the four storage points -----------------------------------

TEST_F(DurabilityTest, WalAppendFailpointAbortsCommitCleanly) {
  Catalog catalog;
  ASSERT_TRUE(::mkdir(dir_.c_str(), 0755) == 0);
  auto wal = WalWriter::Open(dir_ + "/wal.log");
  ASSERT_TRUE(wal.ok());
  catalog.SetCommitSink(wal.value().get());
  ASSERT_TRUE(ApplyOps(&catalog, 2).ok());
  uint64_t head = catalog.version();

  // @match on the commit tag: only the matching mutation trips.
  FailSpec spec;
  spec.mode = FailMode::kErrorOnce;
  spec.match = "doomed";
  FailPoints::Arm("wal.append", spec);
  auto ok = catalog.Mutate(
      [](CatalogTxn& txn) -> Status {
        txn.GetOrCreateDatabase("other");
        return Status::OK();
      },
      "harmless");
  ASSERT_TRUE(ok.ok()) << "@match must not trip on a non-matching tag";
  auto doomed = catalog.Mutate(
      [](CatalogTxn& txn) -> Status {
        txn.GetOrCreateDatabase("never");
        return Status::OK();
      },
      "doomed");
  EXPECT_FALSE(doomed.ok());
  EXPECT_EQ(catalog.version(), head + 1) << "aborted commit must not publish";
  EXPECT_FALSE(catalog.HasDatabase("never"));
  // wal.append checks BEFORE writing: the writer is NOT fail-stop, and
  // recovery sees exactly the published commits.
  EXPECT_FALSE(wal.value()->broken());
  ASSERT_TRUE(catalog.Mutate([](CatalogTxn&) { return Status::OK(); }, "after")
                  .ok());
  catalog.SetCommitSink(nullptr);

  Catalog recovered;
  RecoveryReport report;
  ASSERT_TRUE(recovered.Recover(dir_, &report).ok());
  EXPECT_EQ(report.head_version, catalog.version());
  ExpectCatalogsByteIdentical(catalog, recovered);
}

TEST_F(DurabilityTest, TornWriteFailpointLeavesRecoverablePrefix) {
  Catalog catalog;
  ASSERT_TRUE(::mkdir(dir_.c_str(), 0755) == 0);
  auto wal = WalWriter::Open(dir_ + "/wal.log");
  ASSERT_TRUE(wal.ok());
  catalog.SetCommitSink(wal.value().get());
  ASSERT_TRUE(ApplyOps(&catalog, 4).ok());
  uint64_t head = catalog.version();

  // Crash mid-write: 11 bytes of the next frame reach the disk.
  FailSpec torn;
  torn.mode = FailMode::kTornWrite;
  torn.keep_bytes = 11;
  FailPoints::Arm("wal.append", torn);
  auto st = catalog.PutTable("wal_db", "t2", MixedTable());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(catalog.version(), head);

  // The writer is fail-stop now: the on-disk prefix stays unambiguous.
  EXPECT_TRUE(wal.value()->broken());
  auto after = catalog.PutTable("wal_db", "t3", MixedTable());
  EXPECT_FALSE(after.ok());
  EXPECT_EQ(after.code(), StatusCode::kUnavailable);
  catalog.SetCommitSink(nullptr);

  Catalog recovered;
  RecoveryReport report;
  ASSERT_TRUE(recovered.Recover(dir_, &report).ok());
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.torn_bytes, 11u);
  EXPECT_EQ(report.head_version, head);
  ExpectCatalogsByteIdentical(catalog, recovered);
}

TEST_F(DurabilityTest, FsyncKillWindowRecoveryIncludesDurableRecord) {
  // The crash window between WAL fsync and head publish: the record IS
  // durable, the commit aborted. Recovery must surface the record — the
  // WAL fsync, not the publish, is the commit point.
  Catalog catalog;
  ASSERT_TRUE(::mkdir(dir_.c_str(), 0755) == 0);
  auto wal = WalWriter::Open(dir_ + "/wal.log");
  ASSERT_TRUE(wal.ok());
  catalog.SetCommitSink(wal.value().get());
  ASSERT_TRUE(ApplyOps(&catalog, 3).ok());
  uint64_t head = catalog.version();

  FailSpec kill;
  kill.mode = FailMode::kErrorOnce;
  FailPoints::Arm("wal.fsync", kill);
  auto st = catalog.PutTable("wal_db", "extra", MixedTable());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(catalog.version(), head) << "the commit aborted in memory";
  catalog.SetCommitSink(nullptr);

  Catalog recovered;
  RecoveryReport report;
  ASSERT_TRUE(recovered.Recover(dir_, &report).ok());
  EXPECT_EQ(report.head_version, head + 1)
      << "the fsynced record is durable and must replay";
  EXPECT_FALSE(report.torn_tail);
  auto extra = recovered.ResolveTable("wal_db", "extra");
  ASSERT_TRUE(extra.ok());
  EXPECT_EQ(TableToCsvTyped(*extra.value()), TableToCsvTyped(MixedTable()));
}

TEST_F(DurabilityTest, SnapshotWriteFailpointKillsCheckpointNotRecovery) {
  Catalog catalog;
  RecoveryReport report;
  auto durable = DurableCatalog::Open(&catalog, dir_, {}, &report);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  ASSERT_TRUE(ApplyOps(&catalog, 3).ok());
  ASSERT_TRUE(durable.value()->Checkpoint().ok());
  ASSERT_TRUE(ApplyOps(&catalog, 5).ok());
  uint64_t head = catalog.version();

  // Crash between the tmp fsync and the rename (@match on the destination
  // path proves the detail string is the path).
  FailSpec kill;
  kill.mode = FailMode::kErrorAlways;
  kill.match = dir_;
  FailPoints::Arm("snapshot.write", kill);
  EXPECT_FALSE(durable.value()->Checkpoint().ok());
  // The destructor's final checkpoint also fails; the WAL survives intact.
  durable.value().reset();
  FailPoints::DisarmAll();

  Catalog recovered;
  RecoveryReport rec;
  ASSERT_TRUE(recovered.Recover(dir_, &rec).ok());
  EXPECT_TRUE(rec.recovered_snapshot)
      << "the pre-kill checkpoint snapshot is still the base";
  EXPECT_EQ(rec.head_version, head);
  ExpectCatalogsByteIdentical(catalog, recovered);
}

TEST_F(DurabilityTest, SnapshotLoadFailpointFallsBackToOlderSnapshot) {
  Catalog catalog;
  auto durable = DurableCatalog::Open(&catalog, dir_, {});
  ASSERT_TRUE(durable.ok());
  ASSERT_TRUE(ApplyOps(&catalog, 2).ok());
  ASSERT_TRUE(durable.value()->Checkpoint().ok());
  uint64_t v_old = catalog.version();
  ASSERT_TRUE(ApplyOps(&catalog, 3).ok());
  ASSERT_TRUE(durable.value()->Checkpoint().ok());
  uint64_t head = catalog.version();
  ASSERT_TRUE(durable.value()->Close().ok());
  durable.value().reset();

  // The newest snapshot is unreadable; recovery warns and falls back to
  // its predecessor. The WAL was truncated at the newest checkpoint, so
  // the older snapshot alone cannot reach the head — which is exactly what
  // the fallback accepts: it restores the newest *valid* state.
  FailSpec kill;
  kill.mode = FailMode::kErrorAlways;
  kill.match = SnapshotFileName(head);
  FailPoints::Arm("snapshot.load", kill);
  Catalog recovered;
  RecoveryReport rec;
  ASSERT_TRUE(recovered.Recover(dir_, &rec).ok());
  EXPECT_TRUE(rec.recovered_snapshot);
  EXPECT_EQ(rec.snapshot_version, v_old);
  ASSERT_FALSE(rec.warnings.empty());
  EXPECT_NE(rec.warnings.front().find("skipping snapshot"), std::string::npos);
  EXPECT_EQ(recovered.version(), v_old);
}

// ---- DurableCatalog checkpoints --------------------------------------------

TEST_F(DurabilityTest, CheckpointThenRecoverIsByteIdentical) {
  Catalog catalog;
  RecoveryReport open_report;
  auto durable = DurableCatalog::Open(&catalog, dir_, {}, &open_report);
  ASSERT_TRUE(durable.ok());
  EXPECT_FALSE(open_report.recovered_snapshot);
  ASSERT_TRUE(ApplyOps(&catalog, 4).ok());
  ASSERT_TRUE(durable.value()->Checkpoint().ok());
  ASSERT_TRUE(ApplyOps(&catalog, 2).ok());  // lands in the WAL
  uint64_t head = catalog.version();

  const MetricsRegistry& m = durable.value()->metrics();
  EXPECT_GE(m.Value(counters::kStorageWalAppends), 6u);
  EXPECT_GT(m.Value(counters::kStorageWalBytes), 0u);
  EXPECT_GE(m.Value(counters::kStorageCheckpoints), 2u);  // initial + manual
  ASSERT_TRUE(durable.value()->Close().ok());
  durable.value().reset();

  // Old snapshots are pruned to the newest plus one predecessor.
  EXPECT_LE(ListSnapshotFiles(dir_).size(), 2u);
  ASSERT_FALSE(ListSnapshotFiles(dir_).empty());
  EXPECT_EQ(ListSnapshotFiles(dir_).front().first, head);

  Catalog recovered;
  RecoveryReport rec;
  MetricsRegistry rec_metrics;
  ASSERT_TRUE(
      DurableCatalog::RecoverInto(&recovered, dir_, {}, &rec, &rec_metrics)
          .ok());
  EXPECT_TRUE(rec.recovered_snapshot);
  EXPECT_EQ(rec.snapshot_version, head) << "Close checkpointed the head";
  EXPECT_EQ(rec.head_version, head);
  EXPECT_EQ(rec.replayed_records, 0u) << "checkpoint truncated the WAL";
  ExpectCatalogsByteIdentical(catalog, recovered);
}

// ---- Integration: sources, indexes, fences, answers ------------------------

constexpr char kS2View[] =
    "create view s2::C(date, price) as select D, P "
    "from I::stock T, T.company C, T.date D, T.price P";
constexpr char kFig6Query[] =
    "select C, P from I::stock T, T.company C, T.price P where P > 200";

class DurableIntegrationTest : public DurabilityTest {
 protected:
  void InstallStocks(Catalog* catalog) {
    StockGenConfig cfg;
    cfg.num_companies = 4;
    cfg.num_dates = 6;
    Table s1 = GenerateStockS1(cfg);
    ASSERT_TRUE(InstallStockS1(catalog, "I", s1).ok());
    ASSERT_TRUE(InstallStockS2(catalog, "s2", s1).ok());
  }
};

TEST_F(DurableIntegrationTest, AnswersAreByteIdenticalAcrossRestart) {
  std::string before_csv;
  uint64_t head_before = 0;
  {
    Catalog catalog;
    InstallStocks(&catalog);
    IntegrationSystem system(&catalog, "I");
    ASSERT_TRUE(system.RegisterSource(kS2View).ok());
    ASSERT_TRUE(system.OpenDurable(dir_).ok());
    auto before =
        system.AnswerGuarded(kFig6Query, Semantics(/*multiset=*/true));
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    before_csv = TableToCsvTyped(before.value().table);
    head_before = catalog.version();
    ASSERT_TRUE(system.CloseDurable().ok());
  }
  // Restart: a fresh, empty catalog + system recover everything from disk.
  Catalog catalog;
  IntegrationSystem system(&catalog, "I");
  ASSERT_TRUE(system.OpenDurable(dir_).ok());
  EXPECT_EQ(catalog.version(), head_before);
  ASSERT_EQ(system.sources().size(), 1u);
  EXPECT_FALSE(system.sources()[0]->fenced());
  auto after = system.AnswerGuarded(kFig6Query, Semantics(/*multiset=*/true));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(TableToCsvTyped(after.value().table), before_csv);
  // The rewriting still goes through the recovered source.
  auto rewriting = system.Rewrite(kFig6Query, true);
  ASSERT_TRUE(rewriting.ok());
  EXPECT_TRUE(rewriting.value().query->IsHigherOrder());
}

TEST_F(DurableIntegrationTest, RegistrationsAfterOpenAreDurableWithoutClose) {
  // Register AFTER OpenDurable (the records ride the WAL, not the initial
  // checkpoint), then "crash" without CloseDurable.
  uint64_t head_before = 0;
  std::string before_csv;
  {
    Catalog catalog;
    InstallStocks(&catalog);
    IntegrationSystem system(&catalog, "I");
    ASSERT_TRUE(system.OpenDurable(dir_).ok());
    ASSERT_TRUE(system.RegisterSource(kS2View).ok());
    ASSERT_TRUE(system
                    .RegisterIndex("create index stockPx as btree by given "
                                   "T.company select T.company, T.date, "
                                   "T.price from I::stock T")
                    .ok());
    auto before =
        system.AnswerGuarded(kFig6Query, Semantics(/*multiset=*/true));
    ASSERT_TRUE(before.ok());
    before_csv = TableToCsvTyped(before.value().table);
    head_before = catalog.version();
    // No CloseDurable: the destructor's best-effort checkpoint runs, but
    // arm snapshot.write so even that fails — recovery must come from the
    // initial checkpoint + WAL alone.
    FailSpec kill;
    kill.mode = FailMode::kErrorAlways;
    FailPoints::Arm("snapshot.write", kill);
  }
  FailPoints::DisarmAll();

  Catalog catalog;
  IntegrationSystem system(&catalog, "I");
  ASSERT_TRUE(system.OpenDurable(dir_).ok());
  EXPECT_EQ(catalog.version(), head_before);
  ASSERT_EQ(system.sources().size(), 1u);
  EXPECT_EQ(system.indexes().size(), 1u);
  auto after = system.AnswerGuarded(kFig6Query, Semantics(/*multiset=*/true));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(TableToCsvTyped(after.value().table), before_csv);
}

TEST_F(DurableIntegrationTest, MaintainerFenceSurvivesRestart) {
  uint64_t fence_before = 0;
  {
    Catalog catalog;
    InstallStocks(&catalog);
    IntegrationSystem system(&catalog, "I");
    ASSERT_TRUE(system.OpenDurable(dir_).ok());
    ASSERT_TRUE(system.RegisterSource(kS2View).ok());
    auto maintainer = system.CreateMaintainer(0, "s2");
    ASSERT_TRUE(maintainer.ok()) << maintainer.status().ToString();
    // Apply a delta: the fence advances to the delta's commit version.
    std::vector<Row> delta = {
        {Value::String("NEWCO"),
         Value::MakeDate(Date::Parse("1999-05-05").value()),
         Value::Int(333)}};
    ASSERT_TRUE(maintainer.value().ApplyInserts(delta).ok());
    fence_before = system.sources()[0]->materialized_version();
    EXPECT_GT(fence_before, 0u);
    // Crash without CloseDurable, final checkpoint suppressed: the fence
    // advance must be recovered from the tagged WAL commit record.
    FailSpec kill;
    kill.mode = FailMode::kErrorAlways;
    FailPoints::Arm("snapshot.write", kill);
  }
  FailPoints::DisarmAll();

  Catalog catalog;
  IntegrationSystem system(&catalog, "I");
  ASSERT_TRUE(system.OpenDurable(dir_).ok());
  ASSERT_EQ(system.sources().size(), 1u);
  EXPECT_EQ(system.sources()[0]->materialized_version(), fence_before)
      << "stale-fence state must hold across restarts";
  // The recovered materialization contains the delta.
  auto newco = catalog.ResolveTable("s2", "NEWCO");
  ASSERT_TRUE(newco.ok());
  EXPECT_EQ(newco.value()->num_rows(), 1u);
}

TEST_F(DurableIntegrationTest, RecoveryWarningsSurfaceOnceOnNextAnswer) {
  {
    Catalog catalog;
    InstallStocks(&catalog);
    IntegrationSystem system(&catalog, "I");
    ASSERT_TRUE(system.RegisterSource(kS2View).ok());
    ASSERT_TRUE(system.OpenDurable(dir_).ok());
    ASSERT_TRUE(catalog.PutTable("padding", "pad", MixedTable()).ok());
    ASSERT_TRUE(system.CloseDurable().ok());
  }
  // Tear the WAL tail... there is none after a clean close, so write some
  // garbage to create one.
  {
    std::ofstream out(dir_ + "/wal.log", std::ios::binary | std::ios::app);
    const char junk[] = "\x20\x00\x00\x00 torn";
    out.write(junk, sizeof(junk) - 1);
  }
  Catalog catalog;
  IntegrationSystem system(&catalog, "I");
  ASSERT_TRUE(system.OpenDurable(dir_).ok());
  EXPECT_TRUE(system.recovery_report().torn_tail);
  auto first = system.AnswerGuarded(kFig6Query, {});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  bool saw_recovery_warning = false;
  for (const SourceWarning& w : first.value().warnings) {
    if (w.source.find("recovery") != std::string::npos ||
        w.status.message().find("torn") != std::string::npos) {
      saw_recovery_warning = true;
    }
  }
  EXPECT_TRUE(saw_recovery_warning);
  // Drained exactly once.
  auto second = system.AnswerGuarded(kFig6Query, {});
  ASSERT_TRUE(second.ok());
  for (const SourceWarning& w : second.value().warnings) {
    EXPECT_EQ(w.status.message().find("torn"), std::string::npos);
  }
}

// ---- Chaos: concurrent mutators + injected crash ---------------------------

/// The op stream is deterministic per (thread, op): thread t's op i puts
/// table chaos::t<t> holding rows 0..i keyed (t*100000 + j).
Table ChaosTable(int t, int upto) {
  Table tbl(Schema({{"k", TypeKind::kInt}, {"s", TypeKind::kString}}));
  for (int j = 0; j <= upto; ++j) {
    tbl.AppendRowUnchecked(
        {Value::Int(t * 100000 + j),
         Value::String("t" + std::to_string(t) + "#" + std::to_string(j))});
  }
  return tbl;
}

/// Runs `threads` mutators against a WAL-attached catalog, kills the log
/// with an injected fsync failure mid-run, recovers, and checks the
/// recovered state is byte-identical to a serial re-execution of the
/// committed prefix.
void RunCrashChaos(const std::string& dir, int threads) {
  ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0);
  Catalog catalog;
  auto wal = WalWriter::Open(dir + "/wal.log");
  ASSERT_TRUE(wal.ok());
  catalog.SetCommitSink(wal.value().get());

  constexpr int kOpsPerThread = 12;
  // The crash: after 2/3 of the expected commits, every later fsync
  // "fails" — exactly one record lands durably without its commit (the
  // append-vs-publish window), everything later fails fail-stop.
  FailSpec kill;
  kill.mode = FailMode::kFailAfterN;
  kill.after_n = static_cast<uint64_t>(threads * kOpsPerThread * 2 / 3);
  FailPoints::Arm("wal.fsync", kill);

  std::vector<std::atomic<int>> acked(static_cast<size_t>(threads));
  for (auto& a : acked) a.store(0);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        Status st = catalog.PutTable("chaos", "t" + std::to_string(t),
                                     ChaosTable(t, i));
        if (!st.ok()) break;  // fail-stop: nothing later can commit
        acked[static_cast<size_t>(t)].store(i + 1);
      }
    });
  }
  for (auto& w : workers) w.join();
  catalog.SetCommitSink(nullptr);
  FailPoints::DisarmAll();
  uint64_t published_head = catalog.version();

  Catalog recovered;
  RecoveryReport report;
  ASSERT_TRUE(recovered.Recover(dir, &report).ok());
  // At most ONE ambiguous record (durable but unpublished) beyond the
  // published head — the fail-stop writer guarantees it.
  EXPECT_GE(report.head_version, published_head);
  EXPECT_LE(report.head_version, published_head + 1);
  EXPECT_FALSE(report.torn_tail);

  // Serial re-execution oracle: apply, in one thread, exactly the prefix
  // the recovered state shows per chaos table; the results must be
  // byte-identical.
  Catalog oracle;
  int extra_rows = 0;
  for (int t = 0; t < threads; ++t) {
    std::string rel = "t" + std::to_string(t);
    int acked_n = acked[static_cast<size_t>(t)].load();
    auto tbl = recovered.ResolveTable("chaos", rel);
    int rows = 0;
    if (tbl.ok()) rows = static_cast<int>(tbl.value()->num_rows());
    if (acked_n == 0 && rows == 0) continue;
    // Every acknowledged op is durable; at most one unacknowledged op
    // (the fsync-window record) may additionally appear.
    EXPECT_GE(rows, acked_n) << rel;
    EXPECT_LE(rows, acked_n + 1) << rel;
    extra_rows += rows - acked_n;
    ASSERT_TRUE(oracle.PutTable("chaos", rel, ChaosTable(t, rows - 1)).ok());
  }
  EXPECT_LE(extra_rows, 1) << "only one record fits the fsync-kill window";
  for (int t = 0; t < threads; ++t) {
    std::string rel = "t" + std::to_string(t);
    auto got = recovered.ResolveTable("chaos", rel);
    auto want = oracle.ResolveTable("chaos", rel);
    ASSERT_EQ(got.ok(), want.ok()) << rel;
    if (got.ok()) {
      EXPECT_EQ(TableToCsvTyped(*got.value()), TableToCsvTyped(*want.value()))
          << rel;
    }
  }
}

TEST_F(DurabilityTest, CrashChaosSerialOracleSingleThread) {
  RunCrashChaos(dir_, 1);
}

TEST_F(DurabilityTest, CrashChaosSerialOracleEightThreads) {
  RunCrashChaos(dir_, 8);
}

TEST_F(DurabilityTest, CheckpointRenameKillChaos) {
  // Mutators race checkpoints while snapshot.write kills every rename:
  // no checkpoint lands, but the WAL keeps the full history and recovery
  // still reaches the exact head.
  Catalog catalog;
  auto durable = DurableCatalog::Open(&catalog, dir_, {});
  ASSERT_TRUE(durable.ok());
  FailSpec kill;
  kill.mode = FailMode::kErrorAlways;
  FailPoints::Arm("snapshot.write", kill);

  std::thread mutator([&] {
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(catalog.PutTable("chaos", "t0", ChaosTable(0, i)).ok());
    }
  });
  for (int c = 0; c < 5; ++c) {
    EXPECT_FALSE(durable.value()->Checkpoint().ok());
  }
  mutator.join();
  uint64_t head = catalog.version();
  durable.value().reset();  // final checkpoint also dies
  FailPoints::DisarmAll();

  Catalog recovered;
  RecoveryReport report;
  ASSERT_TRUE(recovered.Recover(dir_, &report).ok());
  EXPECT_EQ(report.head_version, head);
  ExpectCatalogsByteIdentical(catalog, recovered);
}

// ---- Schema evolution under durability -------------------------------------

TEST_F(DurableIntegrationTest, EvolutionCommitsReplayToExactPreCrashHead) {
  // A DDL stream (add → rename → drop) flows through the evolver, each op
  // one tagged Mutate commit plus its re-materialization commit — all on the
  // WAL. Crash with the final checkpoint suppressed: replay must land on the
  // exact pre-crash head with the source's fence advanced to the replayed
  // re-materialization, and answer byte-identically.
  uint64_t head_before = 0;
  uint64_t fence_before = 0;
  std::string before_csv;
  {
    Catalog catalog;
    InstallStocks(&catalog);
    IntegrationSystem system(&catalog, "I");
    ASSERT_TRUE(system.OpenDurable(dir_).ok());
    ASSERT_TRUE(system.RegisterAndMaterializeSource(kS2View).ok());
    SchemaEvolver evolver(&catalog, &system);
    ASSERT_TRUE(
        evolver.Apply(DdlOp::AddAttribute("I", "stock", "vol", Value::Int(0)))
            .ok());
    ASSERT_TRUE(
        evolver.Apply(DdlOp::RenameAttribute("I", "stock", "vol", "volume"))
            .ok());
    ASSERT_TRUE(
        evolver.Apply(DdlOp::DropAttribute("I", "stock", "volume")).ok());
    auto before =
        system.AnswerGuarded(kFig6Query, Semantics(/*multiset=*/true));
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    before_csv = TableToCsvTyped(before.value().table);
    head_before = catalog.version();
    fence_before = system.sources()[0]->materialized_version();
    EXPECT_GT(fence_before, 0u);
    FailSpec kill;
    kill.mode = FailMode::kErrorAlways;
    FailPoints::Arm("snapshot.write", kill);
  }
  FailPoints::DisarmAll();

  Catalog catalog;
  IntegrationSystem system(&catalog, "I");
  ASSERT_TRUE(system.OpenDurable(dir_).ok());
  EXPECT_EQ(catalog.version(), head_before);
  ASSERT_EQ(system.sources().size(), 1u);
  EXPECT_EQ(system.sources()[0]->materialized_version(), fence_before)
      << "re-materialization fence must replay with the DDL commits";
  EXPECT_FALSE(system.sources()[0]->IsStaleAgainst(*catalog.Snapshot()))
      << "replayed source must be current at the replayed head";
  auto after = system.AnswerGuarded(kFig6Query, Semantics(/*multiset=*/true));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(TableToCsvTyped(after.value().table), before_csv);
}

TEST_F(DurableIntegrationTest, TornTailMidDdlStreamReplaysToCommittedPrefix) {
  // Crash mid-DDL-stream with the WAL torn inside the SECOND op's first
  // record: recovery must truncate the tail with a warning and land exactly
  // on the head after the first op — a committed prefix, never a
  // half-applied DDL.
  uint64_t head_mid = 0;
  std::string mid_csv;
  uintmax_t wal_mid = 0;
  const std::string wal_path = dir_ + "/wal.log";
  {
    Catalog catalog;
    InstallStocks(&catalog);
    IntegrationSystem system(&catalog, "I");
    ASSERT_TRUE(system.OpenDurable(dir_).ok());
    ASSERT_TRUE(system.RegisterAndMaterializeSource(kS2View).ok());
    SchemaEvolver evolver(&catalog, &system);
    ASSERT_TRUE(
        evolver.Apply(DdlOp::AddAttribute("I", "stock", "vol", Value::Int(7)))
            .ok());
    auto mid = system.AnswerGuarded(kFig6Query, Semantics(/*multiset=*/true));
    ASSERT_TRUE(mid.ok()) << mid.status().ToString();
    mid_csv = TableToCsvTyped(mid.value().table);
    head_mid = catalog.version();
    wal_mid = std::filesystem::file_size(wal_path);
    // Second op lands on the WAL, then the "machine dies" mid-write.
    ASSERT_TRUE(
        evolver.Apply(DdlOp::RenameAttribute("I", "stock", "vol", "volume"))
            .ok());
    FailSpec kill;
    kill.mode = FailMode::kErrorAlways;
    FailPoints::Arm("snapshot.write", kill);
  }
  FailPoints::DisarmAll();
  ASSERT_GT(std::filesystem::file_size(wal_path), wal_mid);
  // Keep a few bytes of the second op's record: a genuinely torn tail.
  std::filesystem::resize_file(wal_path, wal_mid + 5);

  Catalog catalog;
  IntegrationSystem system(&catalog, "I");
  ASSERT_TRUE(system.OpenDurable(dir_).ok());
  EXPECT_TRUE(system.recovery_report().torn_tail);
  EXPECT_EQ(catalog.version(), head_mid)
      << "replay must stop at the last complete commit before the tear";
  // The first op's attribute is present, the torn rename never applied.
  auto stock = catalog.ResolveTable("I", "stock");
  ASSERT_TRUE(stock.ok());
  EXPECT_TRUE(stock.value()->schema().HasColumn("vol"));
  EXPECT_FALSE(stock.value()->schema().HasColumn("volume"));
  ASSERT_EQ(system.sources().size(), 1u);
  EXPECT_FALSE(system.sources()[0]->IsStaleAgainst(*catalog.Snapshot()));
  auto after = system.AnswerGuarded(kFig6Query, Semantics(/*multiset=*/true));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(TableToCsvTyped(after.value().table), mid_csv);
}

// ---- Per-table commit records ----------------------------------------------

/// Reads a whole file as bytes ("" when missing).
std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A WAL frame around `payload` with a correct length and CRC.
std::string Frame(const std::string& payload) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(Crc32(payload));
  w.Raw(payload.data(), payload.size());
  return w.Take();
}

/// The payloads of the complete frames of a WAL file, in order.
std::vector<std::string> WalPayloads(const std::string& log) {
  std::vector<std::string> payloads;
  size_t pos = 0;
  while (pos + 8 <= log.size()) {
    ByteReader r(log.data() + pos, 4);
    uint32_t len = 0;
    if (!r.U32(&len).ok() || log.size() - pos - 8 < len) break;
    payloads.push_back(log.substr(pos + 8, len));
    pos += 8 + len;
  }
  return payloads;
}

/// The bytes a checkpoint of `snap` would write (databases only).
std::string ImageOf(const CatalogSnapshot& snap) {
  std::string image;
  EncodeSnapshotImage(CaptureSnapshot(snap), &image);
  return image;
}

/// Recovery must restore `want` exactly: head version, every per-database
/// version, and the snapshot image bytes.
void ExpectRecoversExactly(const std::string& dir,
                           const CatalogSnapshot& want) {
  Catalog recovered;
  RecoveryReport report;
  Status st = recovered.Recover(dir, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(report.torn_tail);
  std::shared_ptr<const CatalogSnapshot> got = recovered.Snapshot();
  ASSERT_EQ(got->version(), want.version());
  ASSERT_EQ(got->DatabaseNames(), want.DatabaseNames());
  for (const std::string& db : want.DatabaseNames()) {
    EXPECT_EQ(got->DatabaseVersion(db), want.DatabaseVersion(db)) << db;
    const Database* g = got->GetDatabase(db).value();
    const Database* w = want.GetDatabase(db).value();
    ASSERT_EQ(g->TableNames(), w->TableNames()) << db;
    for (const std::string& rel : w->TableNames()) {
      const Table* gt = g->GetTable(rel).value();
      const Table* wt = w->GetTable(rel).value();
      EXPECT_EQ(gt->schema().ToString(), wt->schema().ToString());
      EXPECT_EQ(TableToCsvTyped(*gt), TableToCsvTyped(*wt))
          << db << "::" << rel;
    }
  }
  // Bytes catch what the renderings hide (-0.0, INT 1 vs DOUBLE 1.0).
  EXPECT_TRUE(ImageOf(*got) == ImageOf(want)) << "snapshot images differ";
}

TEST_F(DurabilityTest, ChecksummedFrameOfUnknownKindRefusesRecovery) {
  Catalog catalog;
  ASSERT_TRUE(::mkdir(dir_.c_str(), 0755) == 0);
  const std::string wal_path = dir_ + "/wal.log";
  {
    auto wal = WalWriter::Open(wal_path);
    ASSERT_TRUE(wal.ok());
    catalog.SetCommitSink(wal.value().get());
    ASSERT_TRUE(ApplyOps(&catalog, 1).ok());
    catalog.SetCommitSink(nullptr);
  }
  const std::string good = ReadBytes(wal_path);
  WriteBytes(wal_path, good + Frame(std::string("\x09 unknown", 9)));
  const std::string before = ReadBytes(wal_path);

  Catalog recovered;
  RecoveryReport report;
  Status st = recovered.Recover(dir_, &report);
  EXPECT_FALSE(st.ok()) << "a checksummed frame is not a torn tail";
  EXPECT_FALSE(report.torn_tail);
  EXPECT_NE(st.message().find("offset " + std::to_string(good.size())),
            std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("kind 9"), std::string::npos) << st.message();
  EXPECT_EQ(ReadBytes(wal_path), before) << "wal.log must be left untouched";
}

TEST_F(DurabilityTest, FullDatabaseCommitRecordOfOldFormatIsRefused) {
  ASSERT_TRUE(::mkdir(dir_.c_str(), 0755) == 0);
  const std::string wal_path = dir_ + "/wal.log";
  // A kind-1 record as the previous format wrote it: version, tag, one
  // whole database, no drops.
  Database db("old");
  db.PutTable("t", MixedTable());
  ByteWriter w;
  w.U8(1);
  w.U64(1);
  w.Str("txn");
  w.U32(1);
  w.U64(1);
  EncodeDatabasePayload(db, &w);
  w.U32(0);
  WriteBytes(wal_path, Frame(w.buffer()));
  const std::string before = ReadBytes(wal_path);

  Catalog recovered;
  Status st = recovered.Recover(dir_);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("kind 1"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("previous WAL format"), std::string::npos)
      << st.message();
  EXPECT_EQ(recovered.version(), 0u);
  EXPECT_EQ(ReadBytes(wal_path), before);
}

TEST_F(DurabilityTest, SpliceThatDoesNotFitTheHeadRefusesRecovery) {
  ASSERT_TRUE(::mkdir(dir_.c_str(), 0755) == 0);
  Catalog catalog;
  {
    auto wal = WalWriter::Open(dir_ + "/wal.log");
    ASSERT_TRUE(wal.ok());
    catalog.SetCommitSink(wal.value().get());
    ASSERT_TRUE(ApplyOps(&catalog, 1).ok());  // wal_db.t: one row, arity 2.
    catalog.SetCommitSink(nullptr);
  }
  const std::string good = ReadBytes(dir_ + "/wal.log");
  auto splice = [](uint64_t at, uint64_t removed, uint32_t arity) {
    ByteWriter w;
    w.U8(3);
    w.U64(2);
    w.Str("txn");
    w.U32(1);
    w.U8(3);  // update
    w.Str("wal_db");
    w.U32(1);
    w.U8(3);  // splice
    w.Str("t");
    w.U64(at);
    w.U64(removed);
    w.U32(arity);
    w.U32(1);
    for (uint32_t c = 0; c < arity; ++c) EncodeCell(Value::Int(c), nullptr, &w);
    return Frame(w.buffer());
  };
  struct Case {
    std::string frame;
    std::string why;
  };
  for (const Case& c : {Case{splice(0, 2, 2), "exceeds 1 row"},
                        Case{splice(2, 0, 2), "exceeds 1 row"},
                        Case{splice(1, 0, 3), "arity 3"}}) {
    WriteBytes(dir_ + "/wal.log", good + c.frame);
    Catalog recovered;
    Status st = recovered.Recover(dir_);
    EXPECT_FALSE(st.ok()) << c.why;
    EXPECT_NE(st.message().find(c.why), std::string::npos) << st.message();
    EXPECT_NE(st.message().find("wal_db::t"), std::string::npos)
        << st.message();
  }
  // The same frame with a fitting range applies.
  WriteBytes(dir_ + "/wal.log", good + splice(1, 0, 2));
  Catalog recovered;
  ASSERT_TRUE(recovered.Recover(dir_).ok());
  EXPECT_EQ(recovered.ResolveTable("wal_db", "t").value()->num_rows(), 2u);
}

TEST_F(DurabilityTest, VersionGapAfterASkippedSnapshotRefusesRecovery) {
  // Two checkpoints, then a bag-delete the log holds as a splice against
  // the newest snapshot's table. The splice fits the older snapshot's table
  // too, so only the version check tells it is applied to the wrong base.
  const std::string image = dir_ + "_crash";
  Catalog catalog;
  {
    auto durable = DurableCatalog::Open(&catalog, dir_, {});
    ASSERT_TRUE(durable.ok());
    ASSERT_TRUE(ApplyOps(&catalog, 3).ok());  // wal_db.t: 3 rows.
    ASSERT_TRUE(durable.value()->Checkpoint().ok());
    ASSERT_TRUE(ApplyOps(&catalog, 5).ok());  // wal_db.t: 5 rows.
    ASSERT_TRUE(durable.value()->Checkpoint().ok());
    ASSERT_TRUE(catalog
                    .Mutate([](CatalogTxn& txn) -> Status {
                      DV_ASSIGN_OR_RETURN(Database * db,
                                          txn.GetMutableDatabase("wal_db"));
                      DV_ASSIGN_OR_RETURN(Table * t, db->GetMutableTable("t"));
                      return t->Splice(1, 1, {});  // Bag-delete of row 1.
                    })
                    .ok());
    // The crash image: Close's final checkpoint never happens in it.
    std::filesystem::copy(dir_, image);
  }
  const std::vector<std::pair<uint64_t, std::string>> snapshots =
      ListSnapshotFiles(image);
  ASSERT_EQ(snapshots.size(), 2u);
  const std::string wal_before = ReadBytes(image + "/wal.log");
  ASSERT_EQ(WalPayloads(wal_before).size(), 1u);

  FailSpec kill;
  kill.mode = FailMode::kErrorAlways;
  kill.match = snapshots[0].second;
  FailPoints::Arm("snapshot.load", kill);
  Catalog fallback;
  RecoveryReport report;
  Status st = fallback.Recover(image, &report);
  FailPoints::DisarmAll();
  EXPECT_EQ(st.code(), StatusCode::kParseError) << st.ToString();
  EXPECT_NE(st.message().find("does not follow head " +
                              std::to_string(snapshots[1].first)),
            std::string::npos)
      << st.message();
  EXPECT_EQ(ReadBytes(image + "/wal.log"), wal_before);

  // With the newest snapshot readable the same image recovers the head.
  Catalog intact;
  ASSERT_TRUE(intact.Recover(image).ok());
  EXPECT_EQ(intact.version(), catalog.version());
  ExpectCatalogsByteIdentical(catalog, intact);
  std::filesystem::remove_all(image);
}

TEST_F(DurabilityTest, ZeroColumnPutClaimingRowsIsRefusedBeforeAllocating) {
  // Rows without columns take no byte, so nothing in the payload bounds
  // their count: a put claiming 2^62 of them must be refused, not sized.
  ASSERT_TRUE(::mkdir(dir_.c_str(), 0755) == 0);
  ByteWriter w;
  w.U8(3);
  w.U64(1);
  w.Str("txn");
  w.U32(1);
  w.U8(1);  // create
  w.Str("db");
  w.U32(1);
  w.U8(2);  // put
  w.Str("t");
  EncodeSchema(Schema(), &w);
  w.U64(uint64_t{1} << 62);
  WriteBytes(dir_ + "/wal.log", Frame(w.buffer()));
  const std::string before = ReadBytes(dir_ + "/wal.log");

  Catalog recovered;
  Status st = recovered.Recover(dir_);
  EXPECT_EQ(st.code(), StatusCode::kParseError) << st.ToString();
  EXPECT_NE(st.message().find("0 column(s)"), std::string::npos)
      << st.message();
  EXPECT_EQ(recovered.version(), 0u);
  EXPECT_EQ(ReadBytes(dir_ + "/wal.log"), before);
}

TEST_F(DurabilityTest, ZeroColumnTableWithRowsIsNeverStored) {
  Table no_rows{Schema()};
  Table one_row{Schema()};
  one_row.AppendRowUnchecked(Row{});
  Catalog catalog;
  {
    auto durable = DurableCatalog::Open(&catalog, dir_, {});
    ASSERT_TRUE(durable.ok());
    ASSERT_TRUE(catalog.PutTable("db", "none", no_rows).ok());
    const uint64_t head = catalog.version();
    Status st = catalog.PutTable("db", "rows", one_row);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find("db::rows"), std::string::npos)
        << st.message();
    EXPECT_EQ(catalog.version(), head) << "a refused commit publishes nothing";
  }
  Catalog recovered;
  ASSERT_TRUE(recovered.Recover(dir_).ok());
  EXPECT_EQ(recovered.version(), catalog.version());
  ExpectCatalogsByteIdentical(catalog, recovered);

  // A snapshot refuses it as well (the table was put without a sink).
  Catalog unlogged;
  ASSERT_TRUE(unlogged.PutTable("db", "rows", one_row).ok());
  Status st = WriteSnapshotFile(CaptureSnapshot(*unlogged.Snapshot()),
                                dir_ + "/" + SnapshotFileName(99));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/" + SnapshotFileName(99)));
}

TEST_F(DurabilityTest, OneRowCommitCostsTheSameAtEveryTableSize) {
  // The record of a one-row append is a splice of that row: its size does
  // not depend on how many rows or tables the database already holds.
  std::vector<uint64_t> per_commit;
  for (int rows : {10, 1000}) {
    const std::string dir = dir_ + "_" + std::to_string(rows);
    ASSERT_TRUE(::mkdir(dir.c_str(), 0755) == 0);
    Catalog catalog;
    for (int t = 0; t < rows / 10; ++t) {
      Table table(Schema({{"k", TypeKind::kInt}, {"v", TypeKind::kString}}));
      for (int j = 0; j < rows; ++j) {
        table.AppendRowUnchecked({Value::Int(j), Value::String("v")});
      }
      ASSERT_TRUE(
          catalog.PutTable("db", "t" + std::to_string(t), std::move(table))
              .ok());
    }
    auto wal = WalWriter::Open(dir + "/wal.log");
    ASSERT_TRUE(wal.ok());
    catalog.SetCommitSink(wal.value().get());
    ASSERT_TRUE(catalog
                    .Mutate([](CatalogTxn& txn) -> Status {
                      DV_ASSIGN_OR_RETURN(Database * db,
                                          txn.GetMutableDatabase("db"));
                      DV_ASSIGN_OR_RETURN(Table * t, db->GetMutableTable("t0"));
                      return t->AppendRow({Value::Int(-1), Value::String("x")});
                    })
                    .ok());
    catalog.SetCommitSink(nullptr);
    per_commit.push_back(wal.value()->bytes_written());
    std::filesystem::remove_all(dir);
  }
  EXPECT_EQ(per_commit[0], per_commit[1]);
  EXPECT_LT(per_commit[1], 100u);
}

/// Seeded random transactions against a durable integration federation
/// (databases r*, plus a maintained s2 over I::stock). Each step commits
/// once or twice; `on_commit` runs after every commit.
class RandomHistory {
 public:
  RandomHistory(uint32_t seed, Catalog* catalog, ViewMaintainer* maintainer,
                std::string company)
      : rng_(seed),
        catalog_(catalog),
        maintainer_(maintainer),
        company_(std::move(company)) {}

  Status Step(const std::function<void()>& on_commit) {
    const int kind = Pick(10);
    if (kind == 9) {
      // A maintainer insert/delete pair: the row lands in I::stock and in
      // s2::<company> (a new company creates, and its delete drops, the
      // label table), then both leave again.
      std::vector<Row> delta = {
          {Value::String(Pick(2) == 0 ? "NEWCO" : company_),
           Value::MakeDate(Date(10000 + Pick(50))),
           Value::Int(static_cast<int64_t>(Pick(500)))}};
      DV_RETURN_IF_ERROR(maintainer_->ApplyInserts(delta));
      on_commit();
      DV_RETURN_IF_ERROR(maintainer_->ApplyDeletes(delta));
      on_commit();
      return Status::OK();
    }
    Result<uint64_t> committed =
        catalog_->Mutate([&](CatalogTxn& txn) { return Apply(kind, txn); });
    DV_RETURN_IF_ERROR(committed.status());
    on_commit();
    return Status::OK();
  }

 private:
  size_t Pick(size_t n) { return static_cast<size_t>(rng_() % n); }

  Value RandomValue() {
    switch (Pick(8)) {
      case 0:
        return Value::Null();
      case 1:
        return Value::Bool(Pick(2) == 0);
      case 2:
        return Value::Double(Pick(2) == 0 ? 0.0 : -0.0);
      case 3:
        return Value::Double(static_cast<double>(Pick(100)) / 8);
      case 4:
        return Value::String("s" + std::to_string(Pick(6)));
      case 5:
        return Value::MakeDate(Date(static_cast<int32_t>(Pick(1000))));
      default:
        return Value::Int(static_cast<int64_t>(Pick(6)));
    }
  }

  Row RandomRow(size_t arity) {
    Row row;
    for (size_t i = 0; i < arity; ++i) row.push_back(RandomValue());
    return row;
  }

  Table RandomTable() {
    std::vector<Column> cols;
    const size_t arity = 1 + Pick(3);
    for (size_t i = 0; i < arity; ++i) {
      cols.emplace_back("c" + std::to_string(i),
                        static_cast<TypeKind>(Pick(6)));
    }
    Table t{Schema(std::move(cols))};
    for (size_t n = Pick(5); n > 0; --n) t.AppendRowUnchecked(RandomRow(arity));
    return t;
  }

  std::vector<std::string> RandomDatabases(CatalogTxn& txn) {
    std::vector<std::string> dbs;
    for (const std::string& db : txn.DatabaseNames()) {
      if (db[0] == 'r' || db[0] == 'R') dbs.push_back(db);
    }
    return dbs;
  }

  /// A random existing table of a random r* database (nullptr when none).
  Table* AnyTable(CatalogTxn& txn) {
    std::vector<std::string> dbs = RandomDatabases(txn);
    if (dbs.empty()) return nullptr;
    Database* db = txn.GetMutableDatabase(dbs[Pick(dbs.size())]).value();
    std::vector<std::string> rels = db->TableNames();
    if (rels.empty()) return nullptr;
    return db->GetMutableTable(rels[Pick(rels.size())]).value();
  }

  Database* AnyDatabase(CatalogTxn& txn) {
    std::vector<std::string> dbs = RandomDatabases(txn);
    if (dbs.empty()) return txn.GetOrCreateDatabase("r0");
    return txn.GetMutableDatabase(dbs[Pick(dbs.size())]).value();
  }

  void Append(CatalogTxn& txn) {
    Table* t = AnyTable(txn);
    if (t == nullptr) {
      AnyDatabase(txn)->PutTable("t" + std::to_string(Pick(4)), RandomTable());
      return;
    }
    for (size_t n = 1 + Pick(3); n > 0; --n) {
      t->AppendRowUnchecked(RandomRow(t->schema().num_columns()));
    }
  }

  /// Bag-deletes one row, as the maintainer does: the first row equal to a
  /// chosen one under GroupEquals goes.
  void BagDelete(CatalogTxn& txn) {
    Table* t = AnyTable(txn);
    if (t == nullptr || t->num_rows() == 0) return;
    Row victim = t->row(Pick(t->num_rows()));
    Table kept(t->schema());
    bool removed = false;
    for (const Row& r : t->rows()) {
      if (!removed && RowGroupEq()(r, victim)) {
        removed = true;
        continue;
      }
      kept.AppendRowUnchecked(r);
    }
    *t = std::move(kept);
  }

  /// Replaces one cell by a GroupEquals-equal twin of another payload
  /// (INT k ↔ DOUBLE k, 0.0 ↔ -0.0): a diff under GroupEquals would miss it.
  void Twin(CatalogTxn& txn) {
    Table* t = AnyTable(txn);
    if (t == nullptr || t->num_rows() == 0) return;
    std::vector<Row> rows = t->rows();
    Value& v = rows[Pick(rows.size())][0];
    if (v.kind() == TypeKind::kInt) {
      v = Value::Double(static_cast<double>(v.as_int()));
    } else if (v.kind() == TypeKind::kDouble && v.as_double() == 0.0) {
      v = Value::Double(std::signbit(v.as_double()) ? 0.0 : -0.0);
    } else {
      v = Value::Int(0);
    }
    Table next(t->schema());
    for (Row& r : rows) next.AppendRowUnchecked(std::move(r));
    *t = std::move(next);
  }

  Status Apply(int kind, CatalogTxn& txn) {
    switch (kind) {
      case 0:
      case 1:
        Append(txn);
        return Status::OK();
      case 2:
        BagDelete(txn);
        return Status::OK();
      case 3:  // A new schema for an existing or new name.
        AnyDatabase(txn)->PutTable("t" + std::to_string(Pick(4)),
                                   RandomTable());
        return Status::OK();
      case 4: {  // AddTable / DropTable.
        Database* db = AnyDatabase(txn);
        std::vector<std::string> rels = db->TableNames();
        if (!rels.empty() && Pick(2) == 0) {
          return db->DropTable(rels[Pick(rels.size())]);
        }
        const std::string rel = "a" + std::to_string(Pick(1000));
        if (db->HasTable(rel)) return Status::OK();
        return db->AddTable(rel, RandomTable());
      }
      case 5: {  // CreateDatabase / DropDatabase.
        std::vector<std::string> dbs = RandomDatabases(txn);
        if (dbs.size() > 1 && Pick(2) == 0) {
          return txn.DropDatabase(dbs[Pick(dbs.size())]);
        }
        const std::string name = "r" + std::to_string(Pick(5));
        if (txn.HasDatabase(name)) return Status::OK();
        DV_ASSIGN_OR_RETURN(Database * db, txn.CreateDatabase(name));
        db->PutTable("t0", RandomTable());
        return Status::OK();
      }
      case 6:  // Several tables, possibly in several databases.
        Append(txn);
        BagDelete(txn);
        Twin(txn);
        return Status::OK();
      case 7:
        Twin(txn);
        return Status::OK();
      default: {  // Same contents under a name of another case.
        std::vector<std::string> dbs = RandomDatabases(txn);
        if (dbs.empty()) return Status::OK();
        const std::string name = dbs[Pick(dbs.size())];
        if (Pick(2) == 0) {
          Database copy = *txn.GetDatabase(name).value();
          DV_RETURN_IF_ERROR(txn.DropDatabase(name));
          std::string flipped = name;
          flipped[0] = flipped[0] == 'r' ? 'R' : 'r';
          DV_ASSIGN_OR_RETURN(Database * db, txn.CreateDatabase(flipped));
          for (const std::string& rel : copy.TableNames()) {
            db->PutTable(rel, *copy.GetTable(rel).value());
          }
          return Status::OK();
        }
        Database* db = txn.GetMutableDatabase(name).value();
        std::vector<std::string> rels = db->TableNames();
        if (rels.empty()) return Status::OK();
        const std::string rel = rels[Pick(rels.size())];
        Table same = *db->GetTable(rel).value();
        DV_RETURN_IF_ERROR(db->DropTable(rel));
        db->PutTable(ToUpper(rel) == rel ? ToLower(rel) : ToUpper(rel),
                     std::move(same));
        return Status::OK();
      }
    }
  }

  std::mt19937 rng_;
  Catalog* catalog_;
  ViewMaintainer* maintainer_;
  std::string company_;  // An existing company: its label table stays.
};

/// Runs a seeded random history with a crash image and exact recovery after
/// every commit. The crash image of the last commit stays at `image`.
void RunRecoveryProperty(const std::string& dir, const std::string& image,
                         uint32_t seed, int steps) {
  Catalog catalog;
  StockGenConfig cfg;
  cfg.num_companies = 3;
  cfg.num_dates = 4;
  Table s1 = GenerateStockS1(cfg);
  ASSERT_TRUE(InstallStockS1(&catalog, "I", s1).ok());
  ASSERT_TRUE(InstallStockS2(&catalog, "s2", s1).ok());
  IntegrationSystem system(&catalog, "I");
  ASSERT_TRUE(system.OpenDurable(dir).ok());
  ASSERT_TRUE(system
                  .RegisterSource(
                      "create view s2::C(date, price) as select D, P "
                      "from I::stock T, T.company C, T.date D, T.price P")
                  .ok());
  auto maintainer = system.CreateMaintainer(0, "s2");
  ASSERT_TRUE(maintainer.ok()) << maintainer.status().ToString();

  int commits = 0;
  auto check = [&] {
    std::filesystem::remove_all(image);
    std::filesystem::copy(dir, image);
    ExpectRecoversExactly(image, *catalog.Snapshot());
    ++commits;
  };
  RandomHistory history(seed, &catalog, &maintainer.value(),
                        s1.row(0)[0].as_string());
  for (int i = 0; i < steps && !::testing::Test::HasFailure(); ++i) {
    Status st = history.Step(check);
    ASSERT_TRUE(st.ok()) << "step " << i << ": " << st.ToString();
  }
  EXPECT_GE(commits, steps);
}

TEST_F(DurabilityTest, RandomHistoriesRecoverTheExactHeadAfterEveryCommit) {
  for (uint32_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string dir = dir_ + "_" + std::to_string(seed);
    RunRecoveryProperty(dir, dir + "_crash", seed, 60);
    EXPECT_GT(WalPayloads(ReadBytes(dir + "_crash/wal.log")).size(), 30u);
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(dir + "_crash");
  }
}

/// True when `got` (recovered from a WAL whose last record was damaged)
/// extends `prefix`, the head before that record: a database at an older
/// version than the head is exactly the prefix's, and every row fits its
/// table's schema.
void ExpectExtendsPrefix(const CatalogSnapshot& got,
                         const CatalogSnapshot& prefix) {
  if (got.version() == prefix.version()) {
    EXPECT_EQ(ImageOf(got), ImageOf(prefix));
    return;
  }
  EXPECT_GT(got.version(), prefix.version());
  for (const std::string& name : got.DatabaseNames()) {
    const Database* db = got.GetDatabase(name).value();
    for (const std::string& rel : db->TableNames()) {
      const Table* t = db->GetTable(rel).value();
      for (const Row& row : t->rows()) {
        ASSERT_EQ(row.size(), t->schema().num_columns()) << name << "::" << rel;
      }
    }
    if (got.DatabaseVersion(name) == got.version()) continue;
    ASSERT_TRUE(prefix.HasDatabase(name)) << name;
    EXPECT_EQ(got.DatabaseVersion(name), prefix.DatabaseVersion(name)) << name;
    ByteWriter a;
    ByteWriter b;
    EncodeDatabasePayload(*db, &a);
    EncodeDatabasePayload(*prefix.GetDatabase(name).value(), &b);
    EXPECT_EQ(a.buffer(), b.buffer()) << name;
  }
}

TEST_F(DurabilityTest, DamagedChecksummedCommitRecordsRefuseOrExtendThePrefix) {
  // The commit frames of a random history, damaged by byte flips and
  // truncations under a recomputed CRC so the decoder really runs on them.
  const std::string source = dir_ + "_source";
  const std::string image = dir_ + "_image";
  RunRecoveryProperty(source, image, 7, 40);
  const std::vector<std::string> payloads =
      WalPayloads(ReadBytes(image + "/wal.log"));
  const std::vector<std::pair<uint64_t, std::string>> snapshots =
      ListSnapshotFiles(image);
  ASSERT_EQ(snapshots.size(), 1u);
  ASSERT_FALSE(payloads.empty());

  // Recovers the snapshot plus `wal` into `catalog`.
  auto recover = [&](const std::string& wal, Catalog* catalog,
                     RecoveryReport* report) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directory(dir_);
    std::filesystem::copy_file(image + "/" + snapshots[0].second,
                               dir_ + "/" + snapshots[0].second);
    WriteBytes(dir_ + "/wal.log", wal);
    return catalog->Recover(dir_, report);
  };

  std::mt19937 rng(11);
  int refused = 0;
  int applied = 0;
  std::string intact;  // The frames before the damaged one.
  for (const std::string& payload : payloads) {
    if (payload[0] == 3) {
      Catalog prefix;
      ASSERT_TRUE(recover(intact, &prefix, nullptr).ok());
      for (int m = 0; m < 12; ++m) {
        std::string damaged = payload;
        if (m % 4 == 3) {
          damaged.resize(rng() % damaged.size());
        } else {
          for (int flips = 1 + m % 2; flips > 0; --flips) {
            damaged[rng() % damaged.size()] ^=
                static_cast<char>(1 + rng() % 255);
          }
        }
        Catalog recovered;
        RecoveryReport report;
        Status st = recover(intact + Frame(damaged), &recovered, &report);
        EXPECT_FALSE(report.torn_tail) << "a checksummed frame is never torn";
        if (!st.ok()) {
          ++refused;
          continue;
        }
        ++applied;
        ExpectExtendsPrefix(*recovered.Snapshot(), *prefix.Snapshot());
      }
    }
    intact += Frame(payload);
  }
  std::filesystem::remove_all(source);
  std::filesystem::remove_all(image);
  EXPECT_GT(refused, 0);
  EXPECT_GT(applied, 0);
}

}  // namespace
}  // namespace dynview
