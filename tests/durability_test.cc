// Durability suite (ctest -L durability): snapshot round-trip
// byte-identity, WAL replay to the exact pre-crash head version, torn-tail
// truncation, checkpoint-then-recover equivalence, failpoint coverage for
// wal.append / wal.fsync / snapshot.write / snapshot.load (including
// torn-write mode), integration-level recovery of sources, indexes and
// maintainer fences, and a crash-recovery chaos oracle at 1 and 8 mutator
// threads: the recovered catalog must be byte-identical to a serial
// re-execution of the committed prefix.
//
// scripts/run_experiments.sh additionally runs this binary under
// ThreadSanitizer alongside the chaos suite.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "evolve/evolution.h"
#include "integration/integration.h"
#include "relational/catalog.h"
#include "relational/csv.h"
#include "schemasql/view_maintainer.h"
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
    auto wal = WalWriter::Open(dir_ + "_nodir/wal.log", /*fsync_each=*/true);
    EXPECT_FALSE(wal.ok()) << "missing directory must fail cleanly";
  }
  ASSERT_TRUE(::mkdir(dir_.c_str(), 0755) == 0);
  auto wal = WalWriter::Open(dir_ + "/wal.log", /*fsync_each=*/true);
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
    auto wal = WalWriter::Open(wal_path, true);
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
  auto wal = WalWriter::Open(dir_ + "/wal.log", true);
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
  auto wal = WalWriter::Open(dir_ + "/wal.log", true);
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
  auto wal = WalWriter::Open(dir_ + "/wal.log", true);
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
  auto durable = DurableCatalog::Open(&catalog, dir_, {}, {}, &report);
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
  auto durable = DurableCatalog::Open(&catalog, dir_, {}, {});
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
  auto durable = DurableCatalog::Open(&catalog, dir_, {}, {}, &open_report);
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
  auto wal = WalWriter::Open(dir + "/wal.log", /*fsync_each=*/true);
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
  auto durable = DurableCatalog::Open(&catalog, dir_, {}, {});
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

}  // namespace
}  // namespace dynview
