// Online schema evolution (src/evolve/): the six DDL kinds as single
// catalog transactions, propagation through registered dynamic views
// (re-lint, atomic re-materialization, deterministic left-stale warnings),
// and the evolve.apply failpoint.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "evolve/evolution.h"
#include "integration/integration.h"

namespace dynview {
namespace {

Table BaseTable() {
  Table t(Schema({{"id", TypeKind::kInt},
                  {"cat", TypeKind::kString},
                  {"val", TypeKind::kInt}}));
  t.AppendRowUnchecked({Value::Int(0), Value::String("a"), Value::Int(10)});
  t.AppendRowUnchecked({Value::Int(1), Value::String("b"), Value::Int(20)});
  t.AppendRowUnchecked({Value::Int(2), Value::String("a"), Value::Int(30)});
  t.AppendRowUnchecked({Value::Int(3), Value::String("b"), Value::Int(40)});
  return t;
}

std::string Canon(const Table& t) {
  Table c = t;
  c.SortRows();
  return c.ToString();
}

class EvolveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::DisarmAll();
    ASSERT_TRUE(catalog_.PutTable("I", "base0", BaseTable()).ok());
  }
  void TearDown() override { FailPoints::DisarmAll(); }

  const Table* Resolve(const std::string& rel) {
    auto t = catalog_.ResolveTable("I", rel);
    return t.ok() ? t.value() : nullptr;
  }

  Catalog catalog_;
};

// ---- The six DDL kinds as bare catalog transactions ------------------------

TEST_F(EvolveTest, AddAttributeFillsExistingRows) {
  SchemaEvolver evolver(&catalog_);
  uint64_t before = catalog_.version();
  auto res = evolver.Apply(DdlOp::AddAttribute("I", "base0", "w", Value::Int(7)));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_GT(res.value().version, before);
  EXPECT_EQ(res.value().tables_changed,
            std::vector<std::string>({"i::base0"}));
  const Table* t = Resolve("base0");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->schema().num_columns(), 4u);
  EXPECT_EQ(t->schema().column(3).name, "w");
  EXPECT_EQ(t->schema().column(3).type, TypeKind::kInt);
  for (const Row& r : t->rows()) EXPECT_EQ(r[3].as_int(), 7);
  // A duplicate attribute is rejected with the catalog untouched.
  uint64_t v = catalog_.version();
  EXPECT_FALSE(
      evolver.Apply(DdlOp::AddAttribute("I", "base0", "W", Value::Int(0)))
          .ok());
  EXPECT_EQ(catalog_.version(), v);
}

TEST_F(EvolveTest, DropAttributeRewritesRows) {
  SchemaEvolver evolver(&catalog_);
  ASSERT_TRUE(evolver.Apply(DdlOp::DropAttribute("I", "base0", "val")).ok());
  const Table* t = Resolve("base0");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->schema().num_columns(), 2u);
  EXPECT_FALSE(t->schema().HasColumn("val"));
  EXPECT_EQ(t->num_rows(), 4u);
  // Missing attribute and last-attribute drops are rejected.
  EXPECT_FALSE(evolver.Apply(DdlOp::DropAttribute("I", "base0", "zzz")).ok());
  ASSERT_TRUE(evolver.Apply(DdlOp::DropAttribute("I", "base0", "cat")).ok());
  EXPECT_FALSE(evolver.Apply(DdlOp::DropAttribute("I", "base0", "id")).ok());
}

TEST_F(EvolveTest, RenameAttributeKeepsData) {
  SchemaEvolver evolver(&catalog_);
  ASSERT_TRUE(
      evolver.Apply(DdlOp::RenameAttribute("I", "base0", "val", "price"))
          .ok());
  const Table* t = Resolve("base0");
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->schema().HasColumn("price"));
  EXPECT_FALSE(t->schema().HasColumn("val"));
  EXPECT_EQ(t->row(0)[2].as_int(), 10);
  // Renaming onto an existing column is rejected.
  EXPECT_FALSE(
      evolver.Apply(DdlOp::RenameAttribute("I", "base0", "price", "id")).ok());
}

TEST_F(EvolveTest, RenameRelationRecordsBothNames) {
  SchemaEvolver evolver(&catalog_);
  auto res = evolver.Apply(DdlOp::RenameRelation("I", "base0", "base1"));
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().tables_changed,
            std::vector<std::string>({"i::base0", "i::base1"}));
  EXPECT_EQ(Resolve("base0"), nullptr);
  ASSERT_NE(Resolve("base1"), nullptr);
  // Collision with an existing relation is rejected.
  ASSERT_TRUE(catalog_.PutTable("I", "other", BaseTable()).ok());
  EXPECT_FALSE(
      evolver.Apply(DdlOp::RenameRelation("I", "base1", "other")).ok());
}

TEST_F(EvolveTest, DemotePartitionsByLabelAndPromoteUnites) {
  SchemaEvolver evolver(&catalog_);
  const std::string original = Canon(*Resolve("base0"));

  auto demote = evolver.Apply(DdlOp::DemoteDataToLabel("I", "base0", "cat"));
  ASSERT_TRUE(demote.ok()) << demote.status().ToString();
  EXPECT_EQ(Resolve("base0"), nullptr);
  const Table* a = Resolve("a");
  const Table* b = Resolve("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // The label column migrated into the schema: partitions carry (id, val).
  EXPECT_FALSE(a->schema().HasColumn("cat"));
  EXPECT_EQ(a->num_rows() + b->num_rows(), 4u);

  auto promote = evolver.Apply(
      DdlOp::PromoteLabelToData("I", {"a", "b"}, "base0", "cat"));
  ASSERT_TRUE(promote.ok()) << promote.status().ToString();
  EXPECT_EQ(Resolve("a"), nullptr);
  const Table* united = Resolve("base0");
  ASSERT_NE(united, nullptr);
  // Unite prepends the label column; the row bag round-trips.
  EXPECT_EQ(ToLower(united->schema().column(0).name), "cat");
  Table reordered(Schema({{"id", TypeKind::kNull},
                          {"cat", TypeKind::kNull},
                          {"val", TypeKind::kNull}}));
  for (const Row& r : united->rows()) {
    reordered.AppendRowUnchecked({r[1], r[0], r[2]});
  }
  EXPECT_EQ(Canon(reordered), original);
}

TEST_F(EvolveTest, DemoteRejectsEmptyRelationAndCollisions) {
  SchemaEvolver evolver(&catalog_);
  ASSERT_TRUE(catalog_.PutTable("I", "empty", Table(BaseTable().schema())).ok());
  EXPECT_FALSE(evolver.Apply(DdlOp::DemoteDataToLabel("I", "empty", "cat")).ok());
  // A label colliding with an existing relation aborts the whole demote.
  ASSERT_TRUE(catalog_.PutTable("I", "a", Table(BaseTable().schema())).ok());
  uint64_t v = catalog_.version();
  EXPECT_FALSE(evolver.Apply(DdlOp::DemoteDataToLabel("I", "base0", "cat")).ok());
  EXPECT_EQ(catalog_.version(), v);
  ASSERT_NE(Resolve("base0"), nullptr);
}

TEST_F(EvolveTest, PromoteRejectsHeterogeneousFamily) {
  SchemaEvolver evolver(&catalog_);
  Table odd(Schema({{"id", TypeKind::kInt}}));
  odd.AppendRowUnchecked({Value::Int(9)});
  ASSERT_TRUE(catalog_.PutTable("I", "odd", odd).ok());
  auto res = evolver.Apply(
      DdlOp::PromoteLabelToData("I", {"base0", "odd"}, "all", "src"));
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.status().message().find("heterogeneous"), std::string::npos);
}

TEST_F(EvolveTest, ApplyToTxnComposesIntoOneCommit) {
  uint64_t before = catalog_.version();
  auto v = catalog_.Mutate([&](CatalogTxn& txn) {
    DV_RETURN_IF_ERROR(SchemaEvolver::ApplyToTxn(
        txn, DdlOp::AddAttribute("I", "base0", "w", Value::Int(1))));
    return SchemaEvolver::ApplyToTxn(
        txn, DdlOp::RenameAttribute("I", "base0", "w", "weight"));
  });
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), before + 1);
  EXPECT_TRUE(Resolve("base0")->schema().HasColumn("weight"));
}

TEST_F(EvolveTest, ApplyFailpointAbortsWithCatalogUntouched) {
  SchemaEvolver evolver(&catalog_);
  FailSpec spec;
  spec.mode = FailMode::kErrorOnce;
  spec.match = "i::base0";
  FailPoints::Arm("evolve.apply", spec);
  uint64_t v = catalog_.version();
  EXPECT_FALSE(
      evolver.Apply(DdlOp::AddAttribute("I", "base0", "w", Value::Int(1)))
          .ok());
  EXPECT_EQ(catalog_.version(), v);
  // Once consumed, the same op applies cleanly.
  EXPECT_TRUE(
      evolver.Apply(DdlOp::AddAttribute("I", "base0", "w", Value::Int(1)))
          .ok());
}

TEST_F(EvolveTest, ApplyAllStopsAtFirstFailure) {
  SchemaEvolver evolver(&catalog_);
  auto res = evolver.ApplyAll(
      {DdlOp::AddAttribute("I", "base0", "w", Value::Int(1)),
       DdlOp::DropAttribute("I", "base0", "nosuch"),
       DdlOp::AddAttribute("I", "base0", "never", Value::Int(2))});
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(Resolve("base0")->schema().HasColumn("w"));
  EXPECT_FALSE(Resolve("base0")->schema().HasColumn("never"));
}

TEST(EvolveRematTagTest, RoundTrips) {
  std::vector<TableRef> refs{{"cp0", "base0"}, {"part0", "alpha"}};
  std::string tag = EvolveRematTag(3, refs);
  size_t index = 0;
  std::vector<TableRef> parsed;
  ASSERT_TRUE(ParseEvolveRematTag(tag, &index, &parsed));
  EXPECT_EQ(index, 3u);
  EXPECT_EQ(parsed, refs);
  // Empty partition sets round-trip too.
  ASSERT_TRUE(ParseEvolveRematTag(EvolveRematTag(0, {}), &index, &parsed));
  EXPECT_EQ(index, 0u);
  EXPECT_TRUE(parsed.empty());
  EXPECT_FALSE(ParseEvolveRematTag("txn", &index, &parsed));
  EXPECT_FALSE(ParseEvolveRematTag("maintainer.delta#0", &index, &parsed));
}

// ---- Propagation through registered dynamic views --------------------------

class EvolvePropagationTest : public EvolveTest {
 protected:
  void SetUp() override {
    EvolveTest::SetUp();
    system_ = std::make_unique<IntegrationSystem>(&catalog_, "I");
    // A first-order copy source and a partitioned (relation-variable)
    // source, both materialized from I and fenced.
    ASSERT_TRUE(system_
                    ->RegisterAndMaterializeSource(
                        "create view cp::base0(id, cat) as select A, C from "
                        "I::base0 T, T.id A, T.cat C")
                    .ok());
    ASSERT_TRUE(system_
                    ->RegisterAndMaterializeSource(
                        "create view part::C(id) as select A from I::base0 T, "
                        "T.cat C, T.id A")
                    .ok());
    evolver_ = std::make_unique<SchemaEvolver>(&catalog_, system_.get());
  }

  Result<AnswerResult> Answer(const std::string& sql, bool multiset) {
    AnswerOptions o;
    o.multiset = multiset;
    return system_->AnswerGuarded(sql, o);
  }

  std::unique_ptr<IntegrationSystem> system_;
  std::unique_ptr<SchemaEvolver> evolver_;
};

TEST_F(EvolvePropagationTest, RegistrationRecordsMaterializationRefs) {
  ASSERT_EQ(system_->sources().size(), 2u);
  EXPECT_TRUE(system_->sources()[0]->fenced());
  ASSERT_EQ(system_->sources()[0]->materialization().size(), 1u);
  EXPECT_EQ(system_->sources()[0]->materialization()[0].ToString(),
            "cp::base0");
  // The partitioned source installed one relation per label.
  std::vector<std::string> part_rels;
  for (const TableRef& r : system_->sources()[1]->materialization()) {
    part_rels.push_back(r.ToString());
  }
  std::sort(part_rels.begin(), part_rels.end());
  EXPECT_EQ(part_rels, std::vector<std::string>({"part::a", "part::b"}));
}

TEST_F(EvolvePropagationTest, AddAttributeRematerializesAffectedSources) {
  auto res =
      evolver_->Apply(DdlOp::AddAttribute("I", "base0", "w", Value::Int(5)));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().sources_affected, 2u);
  EXPECT_EQ(res.value().rematerialized, 2u);
  EXPECT_EQ(res.value().left_stale, 0u);
  EXPECT_TRUE(res.value().warnings.empty());
  // The rebuilt sources serve fresh answers with no stale warnings, and the
  // rewriting path is still taken.
  auto ans = Answer("select A, C from I::base0 T, T.id A, T.cat C", true);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_TRUE(ans.value().warnings.empty());
  auto rewriting =
      system_->Rewrite("select A, C from I::base0 T, T.id A, T.cat C", true);
  ASSERT_TRUE(rewriting.ok());
}

TEST_F(EvolvePropagationTest, EmptyRematerializationAdvancesTheFence) {
  // No row has id > 100: the source installs nothing, and its rebuild
  // after the evolution installs and retires nothing, so that commit
  // touches nothing. The fence must still move past the evolution.
  auto empty = system_->RegisterAndMaterializeSource(
      "create view none::C(id) as select A from I::base0 T, T.cat C, T.id A "
      "where A > 100");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  ASSERT_TRUE(empty.value()->materialization().empty());
  auto res =
      evolver_->Apply(DdlOp::AddAttribute("I", "base0", "w", Value::Int(5)));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().sources_affected, 3u);
  EXPECT_EQ(res.value().rematerialized, 3u);
  EXPECT_EQ(res.value().left_stale, 0u);
  EXPECT_TRUE(empty.value()->materialization().empty());
  EXPECT_FALSE(empty.value()->IsStaleAgainst(*catalog_.Snapshot()));
}

TEST_F(EvolvePropagationTest, DemoteRetiresObsoletePartitions) {
  // Demote then promote back under a different label set: partitions for
  // vanished labels must be dropped by the re-materialization commit.
  ASSERT_TRUE(
      evolver_->Apply(DdlOp::DemoteDataToLabel("I", "base0", "cat")).ok());
  ASSERT_TRUE(evolver_
                  ->Apply(DdlOp::PromoteLabelToData("I", {"a", "b"}, "base0",
                                                    "cat"))
                  .ok());
  // Rows whose cat was 'b' become 'bee': partition part::b becomes obsolete.
  const Table* t = nullptr;
  ASSERT_TRUE(catalog_
                  .Mutate([&](CatalogTxn& txn) -> Status {
                    DV_ASSIGN_OR_RETURN(Database * db,
                                        txn.GetMutableDatabase("I"));
                    DV_ASSIGN_OR_RETURN(Table * bt,
                                        db->GetMutableTable("base0"));
                    Table next{bt->schema()};
                    for (const Row& r : bt->rows()) {
                      Row nr = r;
                      if (nr[0].as_string() == "b") nr[0] = Value::String("bee");
                      next.AppendRowUnchecked(std::move(nr));
                    }
                    *bt = std::move(next);
                    return Status::OK();
                  })
                  .ok());
  auto res =
      evolver_->Apply(DdlOp::AddAttribute("I", "base0", "w", Value::Int(1)));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().rematerialized, 2u);
  auto part = catalog_.GetDatabase("part");
  ASSERT_TRUE(part.ok());
  EXPECT_TRUE(part.value()->HasTable("bee"));
  EXPECT_FALSE(part.value()->HasTable("b"))
      << "obsolete partition must be retired in the same commit";
  (void)t;
}

TEST_F(EvolvePropagationTest, BrokenDefinitionLeftStaleWithWarning) {
  // Register a source whose body reads val; renaming val breaks its
  // definition, so it must be left fenced-stale with a deterministic
  // warning — never rebuilt against a missing column, never a wrong answer.
  ASSERT_TRUE(system_
                  ->RegisterAndMaterializeSource(
                      "create view pv::base0(id, val) as select A, V from "
                      "I::base0 T, T.id A, T.val V")
                  .ok());
  auto res = evolver_->Apply(
      DdlOp::RenameAttribute("I", "base0", "val", "price"));
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().sources_affected, 3u);
  EXPECT_EQ(res.value().rematerialized, 2u);
  EXPECT_EQ(res.value().left_stale, 1u);
  ASSERT_FALSE(res.value().warnings.empty());
  EXPECT_EQ(res.value().warnings[0].source, "pv::base0");
  EXPECT_EQ(res.value().warnings[0].status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(res.value().relint.empty());
  // Queries still answer correctly (the healthy sources or I itself), and
  // repeating the evolution yields the same deterministic warning.
  auto ans = Answer("select A, B from I::base0 T, T.id A, T.price B", true);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  auto res2 =
      evolver_->Apply(DdlOp::AddAttribute("I", "base0", "w", Value::Int(2)));
  ASSERT_TRUE(res2.ok());
  EXPECT_EQ(res2.value().left_stale, 1u);
  ASSERT_FALSE(res2.value().warnings.empty());
  EXPECT_EQ(res2.value().warnings[0].source, "pv::base0");
}

TEST_F(EvolvePropagationTest, RelintCanBeDisabled) {
  EvolveOptions opts;
  opts.relint = false;
  opts.rematerialize = false;
  auto res = evolver_->Apply(
      DdlOp::AddAttribute("I", "base0", "w", Value::Int(3)), opts);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.value().relint.empty());
  EXPECT_EQ(res.value().rematerialized, 0u);
  EXPECT_EQ(res.value().left_stale, 2u);
  // Both sources are now fenced stale; answers fall back to the direct
  // plan on I with deterministic warnings.
  auto ans = Answer("select A, C from I::base0 T, T.id A, T.cat C", true);
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_FALSE(ans.value().warnings.empty());
}

}  // namespace
}  // namespace dynview
