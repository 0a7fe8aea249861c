// Failpoint coverage for the observability counters: arm catalog.resolve /
// engine.grounding with @match filters and assert that source.retries,
// sources.skipped, and failpoint.trips line up with the query's outcome and
// the warnings reported on AnswerResult.

#include <gtest/gtest.h>

#include <mutex>
#include <vector>

#include "common/failpoint.h"
#include "common/query_context.h"
#include "engine/query_engine.h"
#include "integration/integration.h"
#include "observe/observer.h"
#include "schemasql/view_maintainer.h"
#include "schemasql/view_materializer.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

class FailpointCoverageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::DisarmAll();
    StockGenConfig cfg;
    ASSERT_TRUE(InstallStockS2(&catalog_, "s2", GenerateStockS1(cfg)).ok());
  }
  void TearDown() override { FailPoints::DisarmAll(); }

  // One grounding per company relation: coA, coB, coC; 5 rows each.
  static constexpr const char* kFanOut =
      "select R, D, P from s2 -> R, R T, T.date D, T.price P";

  // Runs kFanOut under `qc` (which carries the test's guards) with `obs`
  // attached; returns the engine result.
  Result<Table> Run(QueryObserver* obs, QueryContext* qc,
                    size_t threads = 4) {
    ExecConfig exec;
    exec.num_threads = threads;
    exec.morsel_rows = 4;
    QueryEngine engine(&catalog_, "s2", exec);
    qc->set_observer(obs);
    auto r = engine.ExecuteSql(kFanOut, qc);
    qc->set_observer(nullptr);
    return r;
  }

  Catalog catalog_;
};

TEST_F(FailpointCoverageTest, RetryCounterMatchesInjectedTransientFault) {
  FailSpec once;
  once.mode = FailMode::kErrorOnce;
  once.match = "coa";  // @match filter: only the coA grounding trips.
  FailPoints::Arm("engine.grounding", once);
  QueryGuards g;
  g.source_policy = SourcePolicy::kRetry;
  QueryContext qc(g);
  QueryObserver obs;
  auto r = Run(&obs, &qc);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 15u);  // Retry recovered the grounding.
  EXPECT_EQ(obs.metrics.Value(counters::kSourceRetries), 1u);
  EXPECT_EQ(obs.metrics.Value(counters::kSourcesSkipped), 0u);
  EXPECT_EQ(obs.metrics.Value(counters::kFailpointTrips), 1u);
  EXPECT_TRUE(qc.warnings().empty());
}

TEST_F(FailpointCoverageTest, SkipCounterMatchesWarningsUnderCatalogFault) {
  FailSpec down;
  down.mode = FailMode::kErrorAlways;
  down.match = "s2::coa";  // Catalog-level detail is "db::rel", lowercased.
  FailPoints::Arm("catalog.resolve", down);
  QueryGuards g;
  g.source_policy = SourcePolicy::kSkipAndReport;
  QueryContext qc(g);
  QueryObserver obs;
  auto r = Run(&obs, &qc);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 10u);  // coB + coC only.
  EXPECT_EQ(obs.metrics.Value(counters::kSourcesSkipped), qc.warnings().size());
  EXPECT_EQ(obs.metrics.Value(counters::kSourcesSkipped), 1u);
  EXPECT_EQ(obs.metrics.Value(counters::kSourceRetries), 0u);
  // catalog.resolve trips below the engine still land in failpoint.trips
  // (retry attempts may re-trip; at least the initial failure is counted).
  EXPECT_GE(obs.metrics.Value(counters::kFailpointTrips), 1u);
}

TEST_F(FailpointCoverageTest, SkipCountersInvariantAcrossThreadCounts) {
  FailSpec down;
  down.mode = FailMode::kErrorAlways;
  down.match = "s2::cob";
  FailPoints::Arm("catalog.resolve", down);
  uint64_t skipped[2];
  uint64_t trips[2];
  const size_t threads[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    QueryGuards g;
    g.source_policy = SourcePolicy::kSkipAndReport;
    QueryContext qc(g);
    QueryObserver obs;
    auto r = Run(&obs, &qc, threads[i]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    skipped[i] = obs.metrics.Value(counters::kSourcesSkipped);
    trips[i] = obs.metrics.Value(counters::kFailpointTrips);
    ASSERT_EQ(qc.warnings().size(), 1u);
  }
  EXPECT_EQ(skipped[0], skipped[1]);
  EXPECT_EQ(skipped[0], 1u);
  EXPECT_EQ(trips[0], trips[1]);  // Same retry schedule → same trip count.
}

TEST_F(FailpointCoverageTest, PersistentFaultSkipsWithoutRetries) {
  FailSpec always;
  always.mode = FailMode::kErrorAlways;
  always.match = "coc";
  FailPoints::Arm("engine.grounding", always);
  QueryGuards g;
  g.source_policy = SourcePolicy::kSkipAndReport;
  QueryContext qc(g);
  QueryObserver obs;
  auto r = Run(&obs, &qc, 1);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 10u);
  // kSkipAndReport drops the grounding on the first transient failure (only
  // kRetry re-attempts): one trip, one skip, zero retries.
  EXPECT_EQ(obs.metrics.Value(counters::kSourceRetries), 0u);
  EXPECT_EQ(obs.metrics.Value(counters::kSourcesSkipped), 1u);
  EXPECT_EQ(obs.metrics.Value(counters::kFailpointTrips), 1u);
  ASSERT_EQ(qc.warnings().size(), 1u);
  EXPECT_NE(qc.warnings()[0].source.find("co"), std::string::npos);
}

TEST_F(FailpointCoverageTest, RetryExhaustionCountsEveryAttempt) {
  FailSpec always;
  always.mode = FailMode::kErrorAlways;
  always.match = "coc";
  FailPoints::Arm("engine.grounding", always);
  QueryGuards g;
  g.source_policy = SourcePolicy::kRetry;
  g.max_retries = 2;
  QueryContext qc(g);
  QueryObserver obs;
  auto r = Run(&obs, &qc, 1);
  // Persistent fault under kRetry: the query fails after exhausting
  // retries, and the counters record every attempt.
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(obs.metrics.Value(counters::kSourceRetries),
            static_cast<uint64_t>(g.max_retries));
  EXPECT_EQ(obs.metrics.Value(counters::kFailpointTrips),
            static_cast<uint64_t>(g.max_retries) + 1);
}

TEST_F(FailpointCoverageTest, AnswerGuardedSurfacesCountersNextToWarnings) {
  FailSpec down;
  down.mode = FailMode::kErrorAlways;
  down.match = "s2::coa";
  FailPoints::Arm("catalog.resolve", down);
  Catalog catalog;
  StockGenConfig cfg;
  ASSERT_TRUE(InstallStockS2(&catalog, "s2", GenerateStockS1(cfg)).ok());
  IntegrationSystem system(&catalog, "s2");
  AnswerOptions options;
  options.guards.source_policy = SourcePolicy::kSkipAndReport;
  auto r = system.AnswerGuarded(kFanOut, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().observer, nullptr);
  const QueryObserver& obs = *r.value().observer;
  EXPECT_EQ(obs.metrics.Value(counters::kSourcesSkipped),
            r.value().warnings.size());
  EXPECT_EQ(obs.metrics.Value(counters::kSourcesSkipped), 1u);
  EXPECT_GE(obs.metrics.Value(counters::kFailpointTrips), 1u);
  EXPECT_EQ(r.value().table.num_rows(), 10u);
}

TEST_F(FailpointCoverageTest, CatalogCommitFailpointAbortsOnlyMatchingCommits) {
  FailSpec abort_aux;
  abort_aux.mode = FailMode::kErrorAlways;
  abort_aux.match = "aux";  // Commit detail: touched db keys, comma-joined.
  FailPoints::Arm("catalog.commit", abort_aux);
  uint64_t before = catalog_.version();
  Table t(Schema({{"v", TypeKind::kInt}}));
  t.AppendRowUnchecked({Value::Int(1)});
  Status st = catalog_.PutTable("aux", "t", std::move(t));
  // Commit-or-nothing under injection: the failed commit published nothing.
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(catalog_.version(), before);
  EXPECT_FALSE(catalog_.HasDatabase("aux"));
  // A commit touching a different database does not match and goes through.
  Table other(Schema({{"v", TypeKind::kInt}}));
  other.AppendRowUnchecked({Value::Int(2)});
  ASSERT_TRUE(catalog_.PutTable("other", "t", std::move(other)).ok());
  EXPECT_EQ(catalog_.version(), before + 1);
  EXPECT_TRUE(catalog_.HasDatabase("other"));
}

TEST_F(FailpointCoverageTest, MaterializeFailpointInstallsNothing) {
  // Detail is the lowercased view name: only `C` trips, `keep` does not.
  FailSpec down;
  down.mode = FailMode::kErrorAlways;
  down.match = "c";
  FailPoints::Arm("engine.materialize", down);
  QueryEngine engine(&catalog_, "s2");
  uint64_t before = catalog_.version();
  auto failed = ViewMaterializer::MaterializeSql(
      "create view mat::C(date, price) as "
      "select D, P from s2 -> R, R T, T.date D, T.price P",
      &engine, &catalog_, "mat");
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(catalog_.version(), before);  // One commit: all of it aborted.
  EXPECT_FALSE(catalog_.HasDatabase("mat"));
  auto ok = ViewMaterializer::MaterializeSql(
      "create view mat::keep(date, price) as "
      "select D, P from s2 -> R, R T, T.date D, T.price P",
      &engine, &catalog_, "mat");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(catalog_.ResolveTable("mat", "keep").ok());
}

TEST_F(FailpointCoverageTest, MaintainerDeltaFailpointAbortsTheWholeDelta) {
  constexpr char kView[] =
      "create view mat::C(date, price) as "
      "select D, P from I::stock T, T.company C, T.date D, T.price P";
  Catalog catalog;
  StockGenConfig cfg;
  ASSERT_TRUE(InstallStockS1(&catalog, "I", GenerateStockS1(cfg)).ok());
  QueryEngine engine(&catalog, "I");
  ASSERT_TRUE(
      ViewMaterializer::MaterializeSql(kView, &engine, &catalog, "mat").ok());
  auto m = ViewMaintainer::CreateFromSql(kView, &catalog, "I", "mat");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  FailSpec down;
  down.mode = FailMode::kErrorAlways;
  down.match = "i::stock";  // Delta detail: the base relation, lowercased.
  FailPoints::Arm("maintainer.delta", down);
  size_t base_rows = catalog.ResolveTable("I", "stock").value()->num_rows();
  uint64_t before = catalog.version();
  Row row{Value::String("newco"),
          Value::MakeDate(Date::Parse("1999-06-01").value()),
          Value::Int(42)};
  Status st = m.value().ApplyInserts({row});
  // Base update and propagation are one transaction: the injected failure
  // leaves BOTH untouched (never a base ahead of its materialization).
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(catalog.version(), before);
  EXPECT_EQ(catalog.ResolveTable("I", "stock").value()->num_rows(), base_rows);
  EXPECT_FALSE(catalog.ResolveTable("mat", "newco").ok());
  FailPoints::DisarmAll();
  ASSERT_TRUE(m.value().ApplyInserts({row}).ok());
  EXPECT_EQ(catalog.ResolveTable("I", "stock").value()->num_rows(),
            base_rows + 1);
  EXPECT_TRUE(catalog.ResolveTable("mat", "newco").ok());
}

TEST_F(FailpointCoverageTest, RetryBackoffScheduleUsesInjectedSleep) {
  FailSpec always;
  always.mode = FailMode::kErrorAlways;
  always.match = "coc";
  FailPoints::Arm("engine.grounding", always);
  QueryGuards g;
  g.source_policy = SourcePolicy::kRetry;
  g.max_retries = 3;
  g.retry_backoff_ms = 2;
  std::mutex mu;
  std::vector<int> slept;
  g.retry_sleep = [&](int ms) {
    std::lock_guard<std::mutex> lock(mu);
    slept.push_back(ms);
  };
  QueryContext qc(g);
  QueryObserver obs;
  auto r = Run(&obs, &qc, 1);
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  // The injected hook observed the exact exponential schedule — no
  // wall-clock sleeps happened, so the test is fast AND the schedule is a
  // hard assertion, not a timing heuristic.
  ASSERT_EQ(slept.size(), 3u);
  EXPECT_EQ(slept[0], 2);
  EXPECT_EQ(slept[1], 4);
  EXPECT_EQ(slept[2], 8);
}

TEST_F(FailpointCoverageTest, RetryBackoffRecoversAfterTransientFault) {
  FailSpec once;
  once.mode = FailMode::kErrorOnce;
  once.match = "coa";
  FailPoints::Arm("engine.grounding", once);
  QueryGuards g;
  g.source_policy = SourcePolicy::kRetry;
  g.retry_backoff_ms = 5;
  std::mutex mu;
  std::vector<int> slept;
  g.retry_sleep = [&](int ms) {
    std::lock_guard<std::mutex> lock(mu);
    slept.push_back(ms);
  };
  QueryContext qc(g);
  QueryObserver obs;
  auto r = Run(&obs, &qc);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 15u);
  ASSERT_EQ(slept.size(), 1u);  // One transient fault → one backoff.
  EXPECT_EQ(slept[0], 5);
}

TEST_F(FailpointCoverageTest, LatencyInjectionDoesNotCountAsTrip) {
  FailSpec slow;
  slow.mode = FailMode::kLatency;
  slow.latency_ms = 1;
  FailPoints::Arm("engine.grounding", slow);
  QueryGuards g;
  QueryContext qc(g);
  QueryObserver obs;
  auto r = Run(&obs, &qc);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(obs.metrics.Value(counters::kFailpointTrips), 0u);
  EXPECT_EQ(obs.metrics.Value(counters::kSourceRetries), 0u);
}

}  // namespace
}  // namespace dynview
