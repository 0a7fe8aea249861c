// Workload auditor (src/analyze/audit.h): DV100..DV103 detection on seeded
// fixtures, zero false positives on the three example workloads, DdlOp
// round-trip parsing, and the what-if blast-radius prediction cross-checked
// against SchemaEvolver's actual propagation on all six DDL kinds.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analyze/audit.h"
#include "core/view_definition.h"
#include "evolve/evolution.h"
#include "integration/integration.h"
#include "relational/catalog.h"
#include "workload/hotel_data.h"
#include "workload/stock_data.h"
#include "workload/tickets_data.h"

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

class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.PutTable("I", "base0", BaseTable()).ok());
    system_ = std::make_unique<IntegrationSystem>(&catalog_, "I");
  }

  void Register(const std::string& sql) {
    auto r = system_->RegisterAndMaterializeSource(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  Catalog catalog_;
  std::unique_ptr<IntegrationSystem> system_;
};

// ---- DV100..DV103 on seeded fixtures ---------------------------------------

TEST_F(AuditTest, Dv100DuplicateViewsDetected) {
  Register(
      "create view cp::base0(id, cat) as "
      "select A, C from I::base0 T, T.id A, T.cat C");
  Register(
      "create view cp2::base0(id, cat) as "
      "select A, C from I::base0 T, T.id A, T.cat C");
  AuditReport report = system_->AuditWorkload();
  EXPECT_EQ(report.pairs_checked, 1u);
  EXPECT_EQ(report.duplicates, 1u);
  EXPECT_EQ(report.subsumed, 0u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].code, "DV100");
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kWarning);
  EXPECT_EQ(report.diagnostics[0].statement, 1);
}

TEST_F(AuditTest, Dv101SubsumedViewDetected) {
  Register(
      "create view narrow::base0(id) as "
      "select A from I::base0 T, T.id A, T.val V where V < 25");
  Register(
      "create view wide::base0(id) as select A from I::base0 T, T.id A");
  AuditReport report = system_->AuditWorkload();
  EXPECT_EQ(report.pairs_checked, 1u);
  EXPECT_EQ(report.duplicates, 0u);
  EXPECT_EQ(report.subsumed, 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].code, "DV101");
  // The finding anchors to the narrower (subsumed) view and the fix hint
  // names the merge direction.
  EXPECT_EQ(report.diagnostics[0].statement, 0);
  EXPECT_NE(report.diagnostics[0].fix_hint.find("wide::base0"),
            std::string::npos);
}

TEST_F(AuditTest, SchematicallyDifferentViewsAreNotComparable) {
  // A relation-partition view and an attribute pivot export structurally
  // different schemas; the pair must never reach the containment checker.
  Register(
      "create view part::C(id) as "
      "select A from I::base0 T, T.cat C, T.id A");
  Register(
      "create view piv::base0(id, C) as "
      "select A, V from I::base0 T, T.cat C, T.id A, T.val V");
  AuditReport report = system_->AuditWorkload();
  EXPECT_EQ(report.pairs_checked, 0u);
  EXPECT_TRUE(report.diagnostics.empty());
}

TEST_F(AuditTest, Dv102ShadowedMaterializationDetected) {
  Register(
      "create view cp::base0(id, cat) as "
      "select A, C from I::base0 T, T.id A, T.cat C");
  // A base commit moves I past the fence: the materialization still exists
  // but every query now falls back past it.
  ASSERT_TRUE(catalog_.PutTable("I", "base0", BaseTable()).ok());
  AuditReport report = system_->AuditWorkload();
  EXPECT_EQ(report.shadowed, 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].code, "DV102");
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kWarning);
  EXPECT_NE(report.diagnostics[0].message.find("shadowed"),
            std::string::npos);
}

TEST_F(AuditTest, Dv103UnusedSourceTableDetected) {
  ASSERT_TRUE(catalog_.PutTable("legacy", "used", BaseTable()).ok());
  ASSERT_TRUE(catalog_.PutTable("legacy", "orphan", BaseTable()).ok());
  auto r = system_->RegisterSource(
      "create view v::used(id) as select A from legacy::used T, T.id A");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  AuditReport report = system_->AuditWorkload();
  EXPECT_EQ(report.unused, 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].code, "DV103");
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kNote);
  EXPECT_NE(report.diagnostics[0].message.find("legacy::orphan"),
            std::string::npos);
  // The integration db itself is the query surface, never "unused": I::base0
  // has no reader here, yet no finding names it.
  for (const Diagnostic& d : report.diagnostics) {
    EXPECT_EQ(d.message.find("i::base0"), std::string::npos);
  }
}

TEST_F(AuditTest, GraphEdgesCarryAttributeAnnotations) {
  Register(
      "create view cp::base0(id, cat) as "
      "select A, C from I::base0 T, T.id A, T.cat C");
  AuditReport report = system_->AuditWorkload();
  EXPECT_EQ(report.graph_stats.views, 1u);
  EXPECT_NE(report.graph.find("table i::base0 reads-> view[0] cp::base0 "
                              "[cat->cat,id->id]"),
            std::string::npos)
      << report.graph;
  // The materialization target shows as a writes-> edge.
  EXPECT_NE(report.graph.find("writes->"), std::string::npos)
      << report.graph;
}

TEST_F(AuditTest, AuditMetricsAreRecorded) {
  Register(
      "create view cp::base0(id, cat) as "
      "select A, C from I::base0 T, T.id A, T.cat C");
  Register(
      "create view cp2::base0(id, cat) as "
      "select A, C from I::base0 T, T.id A, T.cat C");
  (void)system_->AuditWorkload();
  const MetricsRegistry& m = system_->metrics();
  EXPECT_EQ(m.Value("analyze.audit.runs"), 1u);
  EXPECT_EQ(m.Value("analyze.audit.pairs_checked"), 1u);
  EXPECT_EQ(m.Value("analyze.audit.duplicates"), 1u);
  (void)system_->WhatIfAudit(DdlOp::AddAttribute("I", "base0", "w"));
  EXPECT_EQ(m.Value("analyze.audit.whatif_runs"), 1u);
  // The per-answer observer export carries the cumulative analyze.* tallies
  // alongside the engine's own counters.
  Result<AnswerResult> answered =
      system_->AnswerGuarded("select T.id from I::base0 T", AnswerOptions{});
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  ASSERT_NE(answered.value().observer, nullptr);
  EXPECT_EQ(answered.value().observer->metrics.Value("analyze.audit.runs"),
            1u);
  EXPECT_EQ(
      answered.value().observer->metrics.Value("analyze.audit.whatif_runs"),
      1u);
  // Only analyze.* is exported: the answer's plan_cache.* counters are its
  // own, not the system's cumulative ones.
  Result<AnswerResult> again =
      system_->AnswerGuarded("select T.id from I::base0 T", AnswerOptions{});
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(m.Value(counters::kPlanCacheMisses), 1u);
  EXPECT_EQ(again.value().observer->metrics.Value(counters::kPlanCacheHits),
            1u);
  EXPECT_EQ(
      again.value().observer->metrics.Value(counters::kPlanCacheMisses), 0u);
}

// ---- Zero false positives on the example workloads -------------------------

/// Builds a WorkloadAuditor over one of the seeded example workloads plus
/// the exact view/index statements its .ssql file registers (kept inline so
/// the test needs no data-file path).
AuditReport AuditWorkloadFixture(
    Catalog* catalog, const std::string& default_db,
    const std::vector<std::string>& view_sql,
    const std::vector<std::string>& index_sql) {
  std::shared_ptr<const CatalogSnapshot> snap = catalog->Snapshot();
  std::vector<std::shared_ptr<ViewDefinition>> sources;
  for (const std::string& sql : view_sql) {
    auto vd = ViewDefinition::FromSql(sql, *snap, default_db);
    EXPECT_TRUE(vd.ok()) << vd.status().ToString();
    if (vd.ok()) {
      sources.push_back(
          std::make_shared<ViewDefinition>(std::move(vd).value()));
    }
  }
  std::vector<AuditIndexInfo> indexes;
  for (const std::string& sql : index_sql) {
    AuditIndexInfo info = WorkloadAuditor::DescribeIndexSql(sql, default_db);
    EXPECT_FALSE(info.name.empty()) << sql;
    indexes.push_back(std::move(info));
  }
  WorkloadAuditor auditor(snap, default_db, std::move(sources),
                          std::move(indexes));
  return auditor.Audit();
}

TEST(AuditWorkloadsTest, StockWorkloadHasNoFindings) {
  Catalog catalog;
  StockGenConfig cfg;
  ASSERT_TRUE(InstallDb0(&catalog, "db0", cfg).ok());
  AuditReport report = AuditWorkloadFixture(
      &catalog, "db0",
      {"create view db1::C(date, price) as "
       "select D, P from db0::stock T, T.company C, T.date D, T.price P",
       "create view db2::nyse(date, C) as "
       "select D, P from db0::stock T, T.exch E, T.company C, T.date D, "
       "T.price P where E = 'nyse'",
       "create view E::daily(date, C) as "
       "select D, avg(P) from db0::stock T, T.exch E, T.date D, T.price P, "
       "T.company C group by E, D, C"},
      {});
  EXPECT_TRUE(report.diagnostics.empty())
      << RenderDiagnosticsText(report.diagnostics);
  EXPECT_EQ(report.graph_stats.views, 3u);
}

TEST(AuditWorkloadsTest, TicketsWorkloadHasNoFindings) {
  Catalog catalog;
  TicketsGenConfig cfg;
  ASSERT_TRUE(InstallTicketJurisdictions(&catalog, "srcdb", cfg).ok());
  ASSERT_TRUE(InstallTicketsIntegration(&catalog, "I", cfg).ok());
  AuditReport report = AuditWorkloadFixture(
      &catalog, "I",
      {"create view tix::S(tnum, lic, infr) as "
       "select N, L, F from I::tickets T, T.state S, T.tnum N, T.lic L, "
       "T.infr F"},
      {"create index byInfr as btree by given T.infr "
       "select T.infr, T.state, T.tnum, T.lic from I::tickets T"});
  EXPECT_TRUE(report.diagnostics.empty())
      << RenderDiagnosticsText(report.diagnostics);
  EXPECT_EQ(report.graph_stats.indexes, 1u);
}

TEST(AuditWorkloadsTest, HotelWorkloadHasNoFindings) {
  Catalog catalog;
  HotelGenConfig cfg;
  ASSERT_TRUE(InstallHotelDatabase(&catalog, "hoteldb", cfg).ok());
  ASSERT_TRUE(InstallHprice(&catalog, "hoteldb").ok());
  ASSERT_TRUE(InstallHotelwords(&catalog, "hoteldb").ok());
  AuditReport report = AuditWorkloadFixture(
      &catalog, "hoteldb",
      {"create view prices::R(hid, price) as "
       "select H, P from hoteldb::hprice T, T.hid H, T.rmtype R, T.price P"},
      {"create index keywords as inverted by given T.value "
       "select T.hid, T.attribute from hoteldb::hotelwords T"});
  EXPECT_TRUE(report.diagnostics.empty())
      << RenderDiagnosticsText(report.diagnostics);
}

// ---- ParseDdlOp round-trip -------------------------------------------------

TEST(ParseDdlOpTest, RoundTripsAllSixKinds) {
  const std::vector<DdlOp> ops = {
      DdlOp::AddAttribute("I", "base0", "w", Value::Int(7)),
      DdlOp::AddAttribute("I", "base0", "s", Value::String("x y's")),
      DdlOp::AddAttribute("I", "base0", "n"),
      DdlOp::DropAttribute("I", "base0", "val"),
      DdlOp::RenameAttribute("I", "base0", "val", "price"),
      DdlOp::RenameRelation("I", "base0", "base1"),
      DdlOp::DemoteDataToLabel("I", "base0", "cat"),
      DdlOp::PromoteLabelToData("I", {"a", "b"}, "base0", "cat"),
  };
  for (const DdlOp& op : ops) {
    Result<DdlOp> parsed = ParseDdlOp(op.ToString());
    ASSERT_TRUE(parsed.ok()) << op.ToString() << ": "
                             << parsed.status().ToString();
    EXPECT_EQ(parsed.value().ToString(), op.ToString());
  }
}

TEST(ParseDdlOpTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseDdlOp("").ok());
  EXPECT_FALSE(ParseDdlOp("frobnicate I::base0").ok());
  EXPECT_FALSE(ParseDdlOp("add-attribute base0 +w=1").ok());
  EXPECT_FALSE(ParseDdlOp("add-attribute I::base0 w=1").ok());
  EXPECT_FALSE(ParseDdlOp("drop-attribute I::base0 val").ok());
  EXPECT_FALSE(ParseDdlOp("rename-attribute I::base0 val").ok());
  EXPECT_FALSE(ParseDdlOp("promote-label-to-data I::r from [a,b").ok());
}

// ---- What-if vs. SchemaEvolver::Apply on all six DDL kinds -----------------

/// Fixture mirroring EvolvePropagationTest: a copy source, a partitioned
/// (relation-variable) source, and a val-reading source that breaks under
/// drop/rename — all materialized from I and fenced.
class WhatIfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.PutTable("I", "base0", BaseTable()).ok());
    system_ = std::make_unique<IntegrationSystem>(&catalog_, "I");
    for (const char* sql :
         {"create view cp::base0(id, cat) as "
          "select A, C from I::base0 T, T.id A, T.cat C",
          "create view part::C(id) as "
          "select A from I::base0 T, T.cat C, T.id A",
          "create view pv::base0(id, val) as "
          "select A, V from I::base0 T, T.id A, T.val V"}) {
      auto r = system_->RegisterAndMaterializeSource(sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  }

  /// The acceptance oracle: every prediction the what-if report makes must
  /// match what actually applying the op reports.
  void CheckPredictionMatchesApply(const DdlOp& op) {
    WhatIfReport predicted = system_->WhatIfAudit(op);
    SchemaEvolver evolver(&catalog_, system_.get());
    Result<EvolutionResult> actual = evolver.Apply(op);
    ASSERT_EQ(predicted.op_valid, actual.ok())
        << op.ToString() << ": " << predicted.op_error;
    if (!actual.ok()) {
      EXPECT_EQ(predicted.op_error, actual.status().message());
      return;
    }
    const EvolutionResult& res = actual.value();
    EXPECT_EQ(predicted.predicted_version, res.version) << op.ToString();
    EXPECT_EQ(predicted.tables_changed, res.tables_changed) << op.ToString();
    EXPECT_EQ(predicted.sources_affected, res.sources_affected)
        << op.ToString();
    EXPECT_EQ(predicted.rematerialized, res.rematerialized) << op.ToString();
    EXPECT_EQ(predicted.left_stale, res.left_stale) << op.ToString();
    EXPECT_EQ(predicted.indexes_fenced, res.indexes_fenced) << op.ToString();
    // Re-lint agreement: same codes anchored to the same sources. (Both
    // sides sort with SortDiagnostics, so the sequences align.)
    std::vector<Diagnostic> actual_relint = res.relint;
    SortDiagnostics(&actual_relint);
    ASSERT_EQ(predicted.relint.size(), actual_relint.size()) << op.ToString();
    for (size_t i = 0; i < actual_relint.size(); ++i) {
      EXPECT_EQ(predicted.relint[i].code, actual_relint[i].code);
      EXPECT_EQ(predicted.relint[i].statement, actual_relint[i].statement);
    }
    // Every source predicted to rebuild was costed O(base).
    for (const WhatIfSourceImpact& s : predicted.impacts) {
      if (s.rematerialized) {
        EXPECT_GT(s.rebuild_rows, 0u);
      }
    }
  }

  Catalog catalog_;
  std::unique_ptr<IntegrationSystem> system_;
};

TEST_F(WhatIfTest, AddAttributeMatchesApply) {
  CheckPredictionMatchesApply(
      DdlOp::AddAttribute("I", "base0", "w", Value::Int(7)));
}

TEST_F(WhatIfTest, DropAttributeMatchesApply) {
  // pv::base0 reads the dropped column: predicted broken + left stale.
  WhatIfReport predicted =
      system_->WhatIfAudit(DdlOp::DropAttribute("I", "base0", "val"));
  ASSERT_TRUE(predicted.op_valid) << predicted.op_error;
  EXPECT_EQ(predicted.left_stale, 1u);
  EXPECT_GE(predicted.rematerialized, 1u);
  CheckPredictionMatchesApply(DdlOp::DropAttribute("I", "base0", "val"));
}

TEST_F(WhatIfTest, RenameAttributeMatchesApply) {
  CheckPredictionMatchesApply(
      DdlOp::RenameAttribute("I", "base0", "val", "price"));
}

TEST_F(WhatIfTest, RenameRelationMatchesApply) {
  CheckPredictionMatchesApply(
      DdlOp::RenameRelation("I", "base0", "base1"));
}

TEST_F(WhatIfTest, DemoteDataToLabelMatchesApply) {
  CheckPredictionMatchesApply(
      DdlOp::DemoteDataToLabel("I", "base0", "cat"));
}

TEST_F(WhatIfTest, PromoteLabelToDataMatchesApply) {
  // Unite two sibling relations into a fresh one; the registered sources
  // all read database I, so the db-level affected predicate fires for them.
  ASSERT_TRUE(catalog_.PutTable("I", "p1", BaseTable()).ok());
  ASSERT_TRUE(catalog_.PutTable("I", "p2", BaseTable()).ok());
  CheckPredictionMatchesApply(
      DdlOp::PromoteLabelToData("I", {"p1", "p2"}, "united", "src"));
}

TEST_F(WhatIfTest, InvalidOpPredictsSameError) {
  CheckPredictionMatchesApply(DdlOp::DropAttribute("I", "base0", "zzz"));
  CheckPredictionMatchesApply(DdlOp::RenameRelation("I", "nosuch", "x"));
}

TEST_F(WhatIfTest, WhatIfLeavesLiveCatalogUntouched) {
  const uint64_t before = catalog_.version();
  WhatIfReport predicted =
      system_->WhatIfAudit(DdlOp::DropAttribute("I", "base0", "val"));
  ASSERT_TRUE(predicted.op_valid);
  EXPECT_EQ(catalog_.version(), before);
  EXPECT_EQ(predicted.base_version, before);
  EXPECT_EQ(predicted.predicted_version, before + 1);
}

TEST_F(WhatIfTest, IndexFencingPredicted) {
  ASSERT_TRUE(
      system_
          ->RegisterIndex("create index byId as btree by given T.id "
                          "select T.id, T.cat from I::base0 T")
          .ok());
  CheckPredictionMatchesApply(
      DdlOp::AddAttribute("I", "base0", "w", Value::Int(1)));
}

}  // namespace
}  // namespace dynview
