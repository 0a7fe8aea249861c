// Unit tests for the relational substrate: Value semantics (3VL), Schema,
// Table (bag semantics), Database and Catalog.

#include <gtest/gtest.h>

#include <memory>

#include "relational/catalog.h"
#include "relational/schema.h"
#include "relational/table.h"
#include "relational/value.h"

namespace dynview {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_EQ(Value::Null().kind(), TypeKind::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).as_bool(), true);
  EXPECT_EQ(Value::Int(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(3.5).as_double(), 3.5);
  EXPECT_EQ(Value::String("nyse").as_string(), "nyse");
  Date d = Date::Parse("1998-01-02").value();
  EXPECT_EQ(Value::MakeDate(d).as_date(), d);
}

TEST(ValueTest, NumericCoercionInCompare) {
  int cmp = 0;
  auto r = Value::Compare(Value::Int(2), Value::Double(2.0), &cmp);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), TriBool::kTrue);
  EXPECT_EQ(cmp, 0);
  r = Value::Compare(Value::Int(2), Value::Double(2.5), &cmp);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(cmp, 0);
}

TEST(ValueTest, NullComparisonIsUnknown) {
  int cmp = 0;
  auto r = Value::Compare(Value::Null(), Value::Int(1), &cmp);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), TriBool::kUnknown);
  auto eq = Value::SqlEquals(Value::Null(), Value::Null());
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ(eq.value(), TriBool::kUnknown);
}

TEST(ValueTest, IncomparableKindsError) {
  int cmp = 0;
  auto r = Value::Compare(Value::Int(1), Value::String("x"), &cmp);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST(ValueTest, GroupSemantics) {
  // NULL groups with NULL; INT 1 groups with DOUBLE 1.0.
  EXPECT_TRUE(Value::Null().GroupEquals(Value::Null()));
  EXPECT_FALSE(Value::Null().GroupEquals(Value::Int(0)));
  EXPECT_TRUE(Value::Int(1).GroupEquals(Value::Double(1.0)));
  EXPECT_EQ(Value::Int(1).GroupHash(), Value::Double(1.0).GroupHash());
  EXPECT_TRUE(Value::String("a").GroupEquals(Value::String("a")));
  EXPECT_FALSE(Value::String("a").GroupEquals(Value::String("b")));
}

TEST(ValueTest, TriLogicTables) {
  EXPECT_EQ(TriAnd(TriBool::kTrue, TriBool::kUnknown), TriBool::kUnknown);
  EXPECT_EQ(TriAnd(TriBool::kFalse, TriBool::kUnknown), TriBool::kFalse);
  EXPECT_EQ(TriOr(TriBool::kTrue, TriBool::kUnknown), TriBool::kTrue);
  EXPECT_EQ(TriOr(TriBool::kFalse, TriBool::kUnknown), TriBool::kUnknown);
  EXPECT_EQ(TriNot(TriBool::kUnknown), TriBool::kUnknown);
  EXPECT_EQ(TriNot(TriBool::kTrue), TriBool::kFalse);
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(7).ToString(), "7");
  EXPECT_EQ(Value::String("x").ToString(), "'x'");
  EXPECT_EQ(Value::String("x").ToLabel(), "x");
  EXPECT_EQ(Value::Bool(false).ToString(), "FALSE");
  // Embedded quotes are doubled so the rendering re-parses as the same
  // value; ToLabel stays raw (it names schema objects, not SQL text).
  EXPECT_EQ(Value::String("A'B").ToString(), "'A''B'");
  EXPECT_EQ(Value::String("'").ToString(), "''''");
  EXPECT_EQ(Value::String("").ToString(), "''");
  EXPECT_EQ(Value::String("A'B").ToLabel(), "A'B");
}

TEST(SchemaTest, LookupIsCaseInsensitive) {
  Schema s = Schema::FromNames({"Company", "date", "price"});
  EXPECT_EQ(s.IndexOf("company"), 0);
  EXPECT_EQ(s.IndexOf("DATE"), 1);
  EXPECT_EQ(s.IndexOf("missing"), -1);
  EXPECT_TRUE(s.HasColumn("PRICE"));
}

TEST(SchemaTest, AddColumnRejectsDuplicates) {
  Schema s;
  EXPECT_TRUE(s.AddColumn(Column("a", TypeKind::kInt)).ok());
  Status st = s.AddColumn(Column("A", TypeKind::kString));
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

TEST(SchemaTest, SameNames) {
  Schema a = Schema::FromNames({"x", "y"});
  Schema b = Schema::FromNames({"X", "Y"});
  Schema c = Schema::FromNames({"y", "x"});
  EXPECT_TRUE(a.SameNames(b));
  EXPECT_FALSE(a.SameNames(c));
}

Table MakeTable(const std::vector<std::string>& cols,
                const std::vector<Row>& rows) {
  Table t(Schema::FromNames(cols));
  for (const Row& r : rows) {
    auto st = t.AppendRow(r);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return t;
}

TEST(TableTest, AppendChecksArity) {
  Table t(Schema::FromNames({"a", "b"}));
  EXPECT_TRUE(t.AppendRow({Value::Int(1), Value::Int(2)}).ok());
  EXPECT_FALSE(t.AppendRow({Value::Int(1)}).ok());
}

TEST(TableTest, AppendTableGrowsGeometrically) {
  // Merging a fan-out appends one part per grounding: the accumulator must
  // reallocate O(log N) times, not once per append.
  const Schema schema({{"x", TypeKind::kInt}});
  Table acc(schema);
  acc.AppendRowUnchecked({Value::Int(0)});
  constexpr int64_t kParts = 1024;
  size_t capacity = acc.rows().capacity();
  int reallocations = 0;
  for (int64_t i = 1; i < kParts; ++i) {
    Table part(schema);
    part.AppendRowUnchecked({Value::Int(i)});
    ASSERT_TRUE(acc.AppendTable(std::move(part)).ok());
    if (acc.rows().capacity() != capacity) {
      ++reallocations;
      capacity = acc.rows().capacity();
    }
  }
  ASSERT_EQ(acc.num_rows(), static_cast<size_t>(kParts));
  for (int64_t i = 0; i < kParts; ++i) EXPECT_EQ(acc.row(i)[0].as_int(), i);
  EXPECT_LE(reallocations, 12);  // log2(1024) + slack.
}

TEST(TableTest, BagSemanticsRetainDuplicates) {
  Table t = MakeTable({"a"}, {{Value::Int(1)}, {Value::Int(1)}});
  EXPECT_EQ(t.num_rows(), 2u);
  Table d = t.Distinct();
  EXPECT_EQ(d.num_rows(), 1u);
}

TEST(TableTest, BagEquality) {
  Table a = MakeTable({"a"}, {{Value::Int(1)}, {Value::Int(2)}, {Value::Int(1)}});
  Table b = MakeTable({"a"}, {{Value::Int(2)}, {Value::Int(1)}, {Value::Int(1)}});
  Table c = MakeTable({"a"}, {{Value::Int(1)}, {Value::Int(2)}});
  EXPECT_TRUE(a.BagEquals(b));
  EXPECT_FALSE(a.BagEquals(c));
  EXPECT_TRUE(a.SetEquals(c));
}

TEST(TableTest, SetEqualityIgnoresMultiplicity) {
  // The heart of the paper's Sec. 4.3: views that lose multiplicities can
  // remain set-equal while differing as bags.
  Table i1 = MakeTable({"x"}, {{Value::Int(1)}, {Value::Int(1)}});
  Table i2 = MakeTable({"x"}, {{Value::Int(1)}});
  EXPECT_TRUE(i1.SetEquals(i2));
  EXPECT_FALSE(i1.BagEquals(i2));
}

TEST(TableTest, SortRowsIsDeterministic) {
  Table t = MakeTable({"a", "b"}, {{Value::Int(2), Value::String("b")},
                                   {Value::Int(1), Value::String("z")},
                                   {Value::Int(1), Value::String("a")}});
  t.SortRows();
  EXPECT_EQ(t.row(0)[0].as_int(), 1);
  EXPECT_EQ(t.row(0)[1].as_string(), "a");
  EXPECT_EQ(t.row(2)[0].as_int(), 2);
}

TEST(TableTest, ToStringRendersHeaderAndRows) {
  Table t = MakeTable({"co", "price"}, {{Value::String("coA"), Value::Int(100)}});
  std::string s = t.ToString();
  EXPECT_NE(s.find("co"), std::string::npos);
  EXPECT_NE(s.find("'coA'"), std::string::npos);
  EXPECT_NE(s.find("100"), std::string::npos);
}

TEST(TableTest, ToStringTruncates) {
  Table t(Schema::FromNames({"a"}));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int(i)}).ok());
  }
  std::string s = t.ToString(3);
  EXPECT_NE(s.find("7 more rows"), std::string::npos);
}

TEST(CatalogTest, DatabaseTableLifecycle) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateDatabase("s2").ok());
  EXPECT_FALSE(cat.CreateDatabase("S2").ok());  // Case-insensitive clash.
  Table t(Schema::FromNames({"date", "price"}));
  EXPECT_TRUE(cat.AddTable("s2", "coA", std::move(t)).ok());
  EXPECT_TRUE(cat.GetDatabase("s2").value()->HasTable("COA"));
  EXPECT_FALSE(cat.AddTable("s2", "coa", Table()).ok());
  auto got = cat.ResolveTable("s2", "coA");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value()->schema().num_columns(), 2u);
  EXPECT_TRUE(cat.DropTable("s2", "coA").ok());
  EXPECT_FALSE(cat.DropTable("s2", "coA").ok());
}

TEST(CatalogTest, NamesAreSortedForVariableRanges) {
  Catalog cat;
  ASSERT_TRUE(cat.Mutate([](CatalogTxn& txn) {
                    Database* db = txn.GetOrCreateDatabase("s2");
                    db->PutTable("coC", Table());
                    db->PutTable("coA", Table());
                    db->PutTable("coB", Table());
                    txn.GetOrCreateDatabase("db1");
                    return Status::OK();
                  })
                  .ok());
  auto names = cat.GetDatabase("s2").value()->TableNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "coA");
  EXPECT_EQ(names[1], "coB");
  EXPECT_EQ(names[2], "coC");
  auto dbs = cat.DatabaseNames();
  ASSERT_EQ(dbs.size(), 2u);
  EXPECT_EQ(dbs[0], "db1");
  EXPECT_EQ(dbs[1], "s2");
}

TEST(CatalogTest, MissingLookupsReportNotFound) {
  Catalog cat;
  EXPECT_EQ(cat.GetDatabase("nope").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(cat.EnsureDatabase("db").ok());
  EXPECT_EQ(cat.ResolveTable("db", "nope").status().code(),
            StatusCode::kNotFound);
}

TEST(CatalogTest, SnapshotsAreImmutableAndVersioned) {
  Catalog cat;
  auto v0 = cat.Snapshot();
  EXPECT_EQ(v0->version(), 0u);
  EXPECT_EQ(v0->num_databases(), 0u);

  Table t(Schema::FromNames({"a"}));
  t.AppendRowUnchecked({Value::Int(1)});
  ASSERT_TRUE(cat.PutTable("db", "t", std::move(t)).ok());
  auto v1 = cat.Snapshot();
  EXPECT_EQ(v1->version(), 1u);

  // The old snapshot still reads the old state.
  EXPECT_FALSE(v0->HasDatabase("db"));
  EXPECT_EQ(v1->ResolveTable("db", "t").value()->num_rows(), 1u);

  // Per-database last-modified versions drive stale fencing.
  EXPECT_EQ(v1->DatabaseVersion("db"), 1u);
  ASSERT_TRUE(cat.PutTable("other", "u", Table()).ok());
  auto v2 = cat.Snapshot();
  EXPECT_EQ(v2->DatabaseVersion("db"), 1u);
  EXPECT_EQ(v2->DatabaseVersion("other"), 2u);
  EXPECT_EQ(v2->DatabaseVersion("missing"), 0u);
}

TEST(CatalogTest, FailedTransactionPublishesNothing) {
  Catalog cat;
  ASSERT_TRUE(cat.PutTable("db", "t", Table()).ok());
  uint64_t before = cat.version();
  auto r = cat.Mutate([](CatalogTxn& txn) -> Status {
    txn.GetOrCreateDatabase("half")->PutTable("way", Table());
    return Status::Internal("abort");
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(cat.version(), before);
  EXPECT_FALSE(cat.HasDatabase("half"));
}

TEST(CatalogTest, TransactionReadsItsOwnWrites) {
  Catalog cat;
  Table t(Schema::FromNames({"a"}));
  t.AppendRowUnchecked({Value::Int(7)});
  ASSERT_TRUE(cat.PutTable("db", "t", std::move(t)).ok());
  auto r = cat.Mutate([](CatalogTxn& txn) -> Status {
    DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase("db"));
    DV_ASSIGN_OR_RETURN(Table * mt, db->GetMutableTable("t"));
    DV_RETURN_IF_ERROR(mt->AppendRow({Value::Int(8)}));
    // The txn's read view includes the append; the committed head not yet.
    DV_ASSIGN_OR_RETURN(const Table* seen, txn.ResolveTable("db", "t"));
    if (seen->num_rows() != 2) return Status::Internal("lost own write");
    return Status::OK();
  });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(cat.ResolveTable("db", "t").value()->num_rows(), 2u);
}

// ---- Per-table structural sharing -----------------------------------------

/// db holds t1..t3 (one row each) and other holds u.
void InstallSharingFixture(Catalog* cat) {
  for (const char* rel : {"t1", "t2", "t3"}) {
    Table t(Schema::FromNames({"a"}));
    t.AppendRowUnchecked({Value::String(rel)});
    ASSERT_TRUE(cat->PutTable("db", rel, std::move(t)).ok());
  }
  ASSERT_TRUE(cat->PutTable("other", "u", Table(Schema::FromNames({"b"}))).ok());
}

TEST(CatalogSharingTest, CommitClonesOnlyTheTableItWrites) {
  Catalog cat;
  InstallSharingFixture(&cat);
  std::shared_ptr<const CatalogSnapshot> before = cat.Snapshot();
  ASSERT_TRUE(cat.Mutate([](CatalogTxn& txn) -> Status {
                   DV_ASSIGN_OR_RETURN(Database * db,
                                       txn.GetMutableDatabase("db"));
                   DV_ASSIGN_OR_RETURN(Table * t1, db->GetMutableTable("t1"));
                   return t1->AppendRow({Value::String("new")});
                 })
                  .ok());
  std::shared_ptr<const CatalogSnapshot> after = cat.Snapshot();

  // The written table is a new object; every other table of the touched
  // database, and every table of the untouched one, is the same object.
  EXPECT_NE(before->ResolveTable("db", "t1").value(),
            after->ResolveTable("db", "t1").value());
  for (const char* rel : {"t2", "t3"}) {
    EXPECT_EQ(before->ResolveTable("db", rel).value(),
              after->ResolveTable("db", rel).value())
        << rel;
  }
  EXPECT_EQ(before->ResolveTable("other", "u").value(),
            after->ResolveTable("other", "u").value());
  EXPECT_EQ(before->GetDatabase("other").value(),
            after->GetDatabase("other").value());

  // The old snapshot's t1 still reads its old rows.
  const Table* old_t1 = before->ResolveTable("db", "t1").value();
  ASSERT_EQ(old_t1->num_rows(), 1u);
  EXPECT_EQ(old_t1->row(0)[0].as_string(), "t1");
  EXPECT_EQ(after->ResolveTable("db", "t1").value()->num_rows(), 2u);
}

TEST(CatalogSharingTest, FailedMutateLeavesHeadAndPointersUnchanged) {
  Catalog cat;
  InstallSharingFixture(&cat);
  std::shared_ptr<const CatalogSnapshot> before = cat.Snapshot();
  std::vector<const Table*> tables;
  for (const char* rel : {"t1", "t2", "t3"}) {
    tables.push_back(before->ResolveTable("db", rel).value());
  }
  auto r = cat.Mutate([](CatalogTxn& txn) -> Status {
    DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase("db"));
    DV_ASSIGN_OR_RETURN(Table * t1, db->GetMutableTable("t1"));
    t1->Clear();
    DV_RETURN_IF_ERROR(db->DropTable("t2"));
    return Status::Internal("abort");
  });
  EXPECT_FALSE(r.ok());
  std::shared_ptr<const CatalogSnapshot> head = cat.Snapshot();
  EXPECT_EQ(head, before);
  const char* rels[] = {"t1", "t2", "t3"};
  for (size_t i = 0; i < tables.size(); ++i) {
    EXPECT_EQ(head->ResolveTable("db", rels[i]).value(), tables[i]) << rels[i];
  }
  EXPECT_EQ(tables[0]->num_rows(), 1u);
}

TEST(CatalogSharingTest, CopiedDatabaseClonesOnFirstWrite) {
  Database a("db");
  Table t(Schema::FromNames({"a"}));
  t.AppendRowUnchecked({Value::Int(1)});
  a.PutTable("t", std::move(t));
  Database b = a;
  const Table* shared = a.GetTable("t").value();
  EXPECT_EQ(b.GetTable("t").value(), shared);

  Table* written = b.GetMutableTable("t").value();
  EXPECT_NE(written, shared);
  ASSERT_TRUE(written->AppendRow({Value::Int(2)}).ok());
  EXPECT_EQ(a.GetTable("t").value()->num_rows(), 1u);
  // The second write finds the table unshared and keeps it.
  EXPECT_EQ(b.GetMutableTable("t").value(), written);
  EXPECT_EQ(b.GetTable("t").value()->num_rows(), 2u);
}

// ---- Reclamation of released versions --------------------------------------
//
// A probe Database copied from a version shares that version's tables; its
// GetMutableTable keeps the table in place iff the probe is its sole owner,
// i.e. iff every version that held the table has been freed.

/// Puts a one-row db::t and returns a probe sharing that table.
Database ProbeOldTable(Catalog* cat, const Table** shared) {
  Table t(Schema::FromNames({"a"}));
  t.AppendRowUnchecked({Value::Int(1)});
  EXPECT_TRUE(cat->PutTable("db", "t", std::move(t)).ok());
  Database probe = *cat->Snapshot()->GetDatabase("db").value();
  *shared = probe.GetTable("t").value();
  return probe;
}

TEST(CatalogReclamationTest, ReleasedVersionIsFreedWithoutAnotherCommit) {
  Catalog cat;
  const Table* shared = nullptr;
  Database probe = ProbeOldTable(&cat, &shared);
  std::shared_ptr<const CatalogSnapshot> old = cat.Snapshot();
  ASSERT_TRUE(cat.PutTable("db", "t", Table(Schema::FromNames({"a"}))).ok());
  old.reset();  // The last reference to the old version; no commit follows.
  EXPECT_EQ(probe.GetMutableTable("t").value(), shared);
}

TEST(CatalogReclamationTest, VersionReleasedDuringACommitIsFreedAsItEnds) {
  Catalog cat;
  const Table* shared = nullptr;
  Database probe = ProbeOldTable(&cat, &shared);
  std::shared_ptr<const CatalogSnapshot> old = cat.Snapshot();
  ASSERT_TRUE(cat.PutTable("db", "t", Table(Schema::FromNames({"a"}))).ok());
  // Released inside a transaction that then fails: the writer still frees
  // the queue as the Mutate ends.
  EXPECT_FALSE(cat.Mutate([&](CatalogTxn&) -> Status {
                    old.reset();
                    return Status::Internal("abort");
                  })
                   .ok());
  EXPECT_EQ(probe.GetMutableTable("t").value(), shared);
}

TEST(CatalogReclamationTest, SnapshotOutlivingItsCatalogIsFreedWhereItDrops) {
  auto cat = std::make_unique<Catalog>();
  const Table* shared = nullptr;
  Database probe = ProbeOldTable(cat.get(), &shared);
  std::shared_ptr<const CatalogSnapshot> old = cat->Snapshot();
  cat.reset();
  EXPECT_EQ(old->ResolveTable("db", "t").value(), shared);
  old.reset();
  EXPECT_EQ(probe.GetMutableTable("t").value(), shared);
}

TEST(CatalogTest, SchemaEpochMovesWithNamesAndSchemasOnly) {
  Catalog cat;
  Table t(Schema({{"a", TypeKind::kInt}}));
  ASSERT_TRUE(cat.PutTable("db", "t", t).ok());
  const uint64_t created = cat.Snapshot()->schema_epoch();
  EXPECT_EQ(created, cat.version());

  // Rows only: appended, replaced by a put of the same schema, or spliced
  // in a replayed commit.
  ASSERT_TRUE(cat.Mutate([](CatalogTxn& txn) -> Status {
                   DV_ASSIGN_OR_RETURN(Database * db,
                                       txn.GetMutableDatabase("db"));
                   DV_ASSIGN_OR_RETURN(Table * mt, db->GetMutableTable("t"));
                   return mt->AppendRow({Value::Int(1)});
                 })
                  .ok());
  EXPECT_EQ(cat.Snapshot()->schema_epoch(), created);
  ASSERT_TRUE(cat.PutTable("db", "t", t).ok());
  EXPECT_EQ(cat.Snapshot()->schema_epoch(), created);
  DatabaseChange splice;
  splice.name = "db";
  TableChange rows;
  rows.op = TableChange::Op::kSplice;
  rows.rel = "t";
  rows.inserted = {{Value::Int(2)}};
  splice.tables.push_back(std::move(rows));
  ASSERT_TRUE(cat.ApplyRecoveredCommit(cat.version() + 1, {splice}).ok());
  EXPECT_EQ(cat.Snapshot()->schema_epoch(), created);

  // Names and schemas: each of these moves the epoch to its own version.
  auto expect_moved = [&](const Status& st, const char* what) {
    ASSERT_TRUE(st.ok()) << what << ": " << st.ToString();
    EXPECT_EQ(cat.Snapshot()->schema_epoch(), cat.version()) << what;
  };
  expect_moved(cat.PutTable("db", "u", t), "new table");
  const Table retyped(Schema({{"a", TypeKind::kDouble}}));
  expect_moved(cat.PutTable("db", "t", retyped), "column type");
  const Table renamed(Schema({{"b", TypeKind::kDouble}}));
  expect_moved(cat.PutTable("db", "t", renamed), "column name");
  expect_moved(cat.Mutate([](CatalogTxn& txn) -> Status {
                    DV_ASSIGN_OR_RETURN(Database * db,
                                        txn.GetMutableDatabase("db"));
                    Table same = *db->GetTable("u").value();
                    DV_RETURN_IF_ERROR(db->DropTable("u"));
                    db->PutTable("U", std::move(same));
                    return Status::OK();
                  })
                   .status(),
               "relation name case");
  expect_moved(cat.DropTable("db", "U"), "dropped table");
  expect_moved(cat.CreateDatabase("other"), "new database");
  expect_moved(cat.DropDatabase("other"), "dropped database");
  DatabaseChange put;
  put.name = "db";
  TableChange table;
  table.op = TableChange::Op::kPut;
  table.rel = "v";
  table.table = t;
  put.tables.push_back(std::move(table));
  expect_moved(cat.ApplyRecoveredCommit(cat.version() + 1, {put}),
               "replayed new table");
}

TEST(CatalogTest, BeforePublishRunsOnlyForACommitAndBeforeReadersSeeIt) {
  Catalog cat;
  ASSERT_TRUE(cat.PutTable("db", "t", Table()).ok());
  const uint64_t base = cat.version();
  uint64_t seen = 0;
  uint64_t head_during_hook = 0;
  auto hook = [&](uint64_t version) {
    seen = version;
    head_during_hook = cat.Snapshot()->version();
  };
  auto write = [](CatalogTxn& txn) {
    txn.GetOrCreateDatabase("db")->PutTable("t", Table());
    return Status::OK();
  };
  Result<uint64_t> committed = cat.Mutate(write, "txn", hook);
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(seen, committed.value());
  EXPECT_EQ(seen, base + 1);
  EXPECT_EQ(head_during_hook, base);

  // A transaction that fails, one the commit sink refuses and one that
  // touches nothing publish nothing and run no hook.
  struct RefusingSink : CatalogCommitSink {
    Status OnCommit(const CatalogSnapshot&, const CatalogSnapshot&,
                    const std::string&) override {
      return Status::Unavailable("log device gone");
    }
  } refusing;
  seen = 0;
  EXPECT_FALSE(cat.Mutate([](CatalogTxn&) { return Status::Internal("no"); },
                          "txn", hook)
                   .ok());
  cat.SetCommitSink(&refusing);
  EXPECT_FALSE(cat.Mutate(write, "txn", hook).ok());
  cat.SetCommitSink(nullptr);
  EXPECT_TRUE(cat.Mutate([](CatalogTxn&) { return Status::OK(); }, "txn", hook)
                  .ok());
  EXPECT_EQ(seen, 0u);
  EXPECT_EQ(cat.version(), base + 1);
}

TEST(TableTest, SpliceChecksRangeAndArity) {
  Table t(Schema::FromNames({"a"}));
  for (int i = 0; i < 4; ++i) t.AppendRowUnchecked({Value::Int(i)});
  ASSERT_TRUE(t.Splice(1, 2, {{Value::Int(9)}}).ok());
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.row(0)[0].as_int(), 0);
  EXPECT_EQ(t.row(1)[0].as_int(), 9);
  EXPECT_EQ(t.row(2)[0].as_int(), 3);
  EXPECT_FALSE(t.Splice(3, 1, {}).ok());
  EXPECT_FALSE(t.Splice(4, 0, {}).ok());
  EXPECT_FALSE(t.Splice(0, 0, {{Value::Int(1), Value::Int(2)}}).ok());
  EXPECT_EQ(t.num_rows(), 3u);
  ASSERT_TRUE(t.Splice(3, 0, {{Value::Int(4)}}).ok());
  EXPECT_EQ(t.row(3)[0].as_int(), 4);
}

}  // namespace
}  // namespace dynview
