// Observability layer tests: MetricsRegistry and QueryTrace units, the
// engine's span/counter instrumentation, AnswerGuarded's observer export,
// and the optimizer's EXPLAIN.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/query_context.h"
#include "core/view_definition.h"
#include "engine/query_engine.h"
#include "integration/integration.h"
#include "observe/observer.h"
#include "optimizer/optimizer.h"
#include "schemasql/view_materializer.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

TEST(MetricsRegistryTest, AddMergeValueAndFlatText) {
  MetricsRegistry m;
  m.Add(counters::kRowsScanned, 10);
  m.Add(counters::kRowsScanned, 5);
  m.Add(counters::kRowsJoined, 3);
  m.Set(counters::kBudgetRowsCharged, 42);
  EXPECT_EQ(m.Value(counters::kRowsScanned), 15u);
  EXPECT_EQ(m.Value(counters::kRowsJoined), 3u);
  EXPECT_EQ(m.Value(counters::kBudgetRowsCharged), 42u);
  EXPECT_EQ(m.Value("never.touched"), 0u);
  auto merged = m.Merged();
  EXPECT_EQ(merged.at("rows.scanned"), 15u);
  EXPECT_EQ(merged.at("budget.rows_charged"), 42u);
  // Flat text is sorted name=value lines.
  EXPECT_EQ(m.ToFlatText(),
            "budget.rows_charged=42\nrows.joined=3\nrows.scanned=15\n");
  m.Reset();
  EXPECT_TRUE(m.Merged().empty());
  EXPECT_EQ(m.Value(counters::kRowsScanned), 0u);
}

TEST(MetricsRegistryTest, ConcurrentAddsSumDeterministically) {
  MetricsRegistry m;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m] {
      for (int i = 0; i < kPerThread; ++i) m.Add(counters::kRowsScanned, 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(m.Value(counters::kRowsScanned),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, ReadersRaceWritersSafely) {
  // Long-lived registries (server, system, storage) are read while other
  // threads write to them: one thread adds under fresh names while another
  // merges and reads. Every read sees a consistent prefix, the end is exact.
  MetricsRegistry m;
  constexpr int kNames = 64;
  constexpr int kRounds = 200;
  std::vector<std::string> names;
  for (int i = 0; i < kNames; ++i) {
    names.push_back("race.n" + std::to_string(i));
  }
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int r = 0; r < kRounds; ++r) {
      for (const std::string& n : names) m.Add(n.c_str(), 1);
      m.Add(counters::kRowsScanned, 1);
    }
    done.store(true);
  });
  uint64_t last = 0;
  bool monotonic = true;
  bool reads_consistent = true;
  while (!done.load()) {
    std::map<std::string, uint64_t> merged = m.Merged();
    auto it = merged.find(counters::kRowsScanned);
    const uint64_t scanned = it == merged.end() ? 0 : it->second;
    // Each round adds every race.* name before rows.scanned.
    for (const auto& [name, value] : merged) {
      if (name.rfind("race.", 0) == 0 && value < scanned) {
        reads_consistent = false;
      }
    }
    const uint64_t v = m.Value(counters::kRowsScanned);
    if (v < last || v < scanned) monotonic = false;
    last = v;
  }
  writer.join();
  EXPECT_TRUE(monotonic);
  EXPECT_TRUE(reads_consistent);
  EXPECT_EQ(m.Value(counters::kRowsScanned), static_cast<uint64_t>(kRounds));
  std::map<std::string, uint64_t> merged = m.Merged();
  ASSERT_EQ(merged.size(), static_cast<size_t>(kNames) + 1);
  for (const std::string& n : names) {
    EXPECT_EQ(merged.at(n), static_cast<uint64_t>(kRounds)) << n;
  }
}

TEST(MetricsRegistryTest, ThreadCacheSurvivesRegistrySwitchAndReset) {
  // One thread alternating between two live registries, with a Reset in
  // between, must never misattribute counts.
  MetricsRegistry a;
  MetricsRegistry b;
  a.Add("x", 1);
  b.Add("x", 10);
  a.Add("x", 2);
  EXPECT_EQ(a.Value("x"), 3u);
  EXPECT_EQ(b.Value("x"), 10u);
  a.Reset();
  a.Add("x", 5);
  EXPECT_EQ(a.Value("x"), 5u);
  EXPECT_EQ(b.Value("x"), 10u);
}

TEST(QueryTraceTest, SpansNestAndExport) {
  QueryTrace trace;
  {
    ScopedSpan outer(&trace, "query.execute");
    ASSERT_NE(outer.id(), 0u);
    {
      ScopedSpan inner(&trace, "op.filter", "100 rows");
      EXPECT_NE(inner.id(), outer.id());
    }
  }
  auto spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "query.execute");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].name, "op.filter");
  EXPECT_EQ(spans[1].parent, spans[0].id);  // Auto-parented, same thread.
  EXPECT_GE(spans[0].end_ns, spans[0].start_ns);
  std::string text = trace.ToText();
  EXPECT_NE(text.find("query.execute"), std::string::npos);
  EXPECT_NE(text.find("  op.filter(100 rows)"), std::string::npos);
  std::string json = trace.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(QueryTraceTest, ExplicitParentStitchesCrossThreadSpans) {
  QueryTrace trace;
  uint64_t parent_id = 0;
  {
    ScopedSpan parent(&trace, "grounding.fanout");
    parent_id = parent.id();
    std::thread worker([&trace, parent_id] {
      ScopedSpan child(&trace, "grounding", "ibm", parent_id);
    });
    worker.join();
  }
  auto spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, parent_id);
  EXPECT_NE(spans[1].tid, spans[0].tid);  // Distinct dense thread index.
}

TEST(QueryTraceTest, NullTraceIsNoOp) {
  ScopedSpan span(nullptr, "anything");
  EXPECT_EQ(span.id(), 0u);
}

TEST(QueryTraceTest, JsonEscapesDetails) {
  QueryTrace trace;
  trace.End(trace.Begin("op", "quote\" slash\\ tab\t"));
  std::string json = trace.ToChromeTraceJson();
  EXPECT_NE(json.find("quote\\\" slash\\\\ tab\\t"), std::string::npos);
}

class ObserveEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StockGenConfig cfg;
    s1_ = GenerateStockS1(cfg);
    ASSERT_TRUE(InstallStockS2(&catalog_, "s2", s1_).ok());
  }

  Catalog catalog_;
  Table s1_;
};

// The Fig. 1 fan-out: 3 company relations under s2, 5 dates each = 15 rows.
constexpr char kFanOut[] =
    "select R, D, P from s2 -> R, R T, T.date D, T.price P";

TEST_F(ObserveEngineTest, FanOutPopulatesCountersAndTrace) {
  ExecConfig exec;
  exec.num_threads = 2;
  exec.morsel_rows = 4;
  QueryEngine engine(&catalog_, "s2", exec);
  QueryObserver obs;
  QueryContext qc;
  qc.set_observer(&obs);
  auto r = engine.ExecuteSql(kFanOut, &qc);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 15u);

  EXPECT_EQ(obs.metrics.Value(counters::kGroundingsEnumerated), 3u);
  EXPECT_EQ(obs.metrics.Value(counters::kGroundingsEvaluated), 3u);
  EXPECT_EQ(obs.metrics.Value(counters::kGroundingsPruned), 0u);
  EXPECT_EQ(obs.metrics.Value(counters::kRowsUnioned), 15u);
  EXPECT_GE(obs.metrics.Value(counters::kRowsScanned), 15u);
  EXPECT_EQ(obs.metrics.Value(counters::kSourcesSkipped), 0u);
  EXPECT_EQ(obs.metrics.Value(counters::kFailpointTrips), 0u);

  // Trace: one query span, one fan-out span, one span per grounding, all
  // stitched under the fan-out.
  auto spans = obs.trace.Snapshot();
  uint64_t fanout_id = 0;
  size_t groundings = 0;
  for (const auto& s : spans) {
    if (s.name == "grounding.fanout") fanout_id = s.id;
  }
  ASSERT_NE(fanout_id, 0u);
  for (const auto& s : spans) {
    if (s.name == "grounding") {
      ++groundings;
      EXPECT_EQ(s.parent, fanout_id);
      EXPECT_GT(s.end_ns, 0);
    }
  }
  EXPECT_EQ(groundings, 3u);
  std::string report = obs.Report();
  EXPECT_NE(report.find("groundings.evaluated=3"), std::string::npos);
  EXPECT_NE(report.find("query.execute"), std::string::npos);
}

TEST_F(ObserveEngineTest, NoObserverIsTheDefaultFastPath) {
  QueryEngine engine(&catalog_, "s2");
  auto r = engine.ExecuteSql(kFanOut);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 15u);
}

TEST(ObserveIntegrationTest, AnswerGuardedExportsObserver) {
  Catalog catalog;
  StockGenConfig cfg;
  ASSERT_TRUE(InstallDb0(&catalog, "I", cfg).ok());
  IntegrationSystem system(&catalog, "I");
  AnswerOptions options;
  auto r = system.AnswerGuarded(
      "select C, P from I::stock T, T.company C, T.price P where P > 0",
      options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value().observer, nullptr);
  const QueryObserver& obs = *r.value().observer;
  EXPECT_GT(obs.metrics.Value(counters::kRowsScanned), 0u);
  // Budget gauges reflect the guard's accounting even with no budgets set.
  EXPECT_NE(obs.metrics.ToFlatText().find("budget.rows_charged="),
            std::string::npos);
  EXPECT_GT(obs.trace.size(), 0u);
}

TEST(ObserveIntegrationTest, CallerObserverSuppressesResultExport) {
  Catalog catalog;
  StockGenConfig cfg;
  ASSERT_TRUE(InstallDb0(&catalog, "I", cfg).ok());
  IntegrationSystem system(&catalog, "I");
  // A caller-attached observer suppresses the result's own export but still
  // receives the query's data.
  QueryObserver mine;
  QueryContext qc;
  qc.set_observer(&mine);
  AnswerOptions options;
  auto r = system.AnswerGuarded(
      "select C from I::stock T, T.company C", options, &qc);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().observer, nullptr);  // Caller owns the observer...
  EXPECT_GT(mine.metrics.Value(counters::kRowsScanned), 0u);  // ...with data.
  EXPECT_EQ(qc.observer(), &mine);  // Caller attachment survives the call.
}

TEST(ObserveExplainTest, ExplainNamesAccessPathsAndBaseline) {
  Catalog catalog;
  StockGenConfig cfg;
  cfg.num_companies = 6;
  cfg.num_dates = 10;
  ASSERT_TRUE(InstallDb0(&catalog, "db0", cfg).ok());
  QueryEngine engine(&catalog, "db0");
  const std::string rel_view =
      "create view db1::C(date, price) as "
      "select D, P from db0::stock T, T.company C, T.date D, T.price P";
  ASSERT_TRUE(
      ViewMaterializer::MaterializeSql(rel_view, &engine, &catalog, "db1")
          .ok());
  auto vd = ViewDefinition::FromSql(rel_view, catalog, "db0");
  ASSERT_TRUE(vd.ok()) << vd.status().ToString();

  Optimizer opt(&catalog, "db0");
  opt.RegisterView(std::make_shared<ViewDefinition>(std::move(vd).value()));
  const std::string q =
      "select C, P from db0::stock T, T.company C, T.price P where P > 250";
  auto plan = opt.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto explain = opt.Explain(q);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  const std::string& text = explain.value();
  EXPECT_NE(text.find("== chosen plan =="), std::string::npos);
  EXPECT_NE(text.find("== access paths =="), std::string::npos);
  EXPECT_NE(text.find("== baseline"), std::string::npos);
  EXPECT_NE(text.find("est_cost ratio"), std::string::npos);
  if (plan.value().uses_views) {
    // The Sec. 6 deliverable: EXPLAIN names the chosen view access path.
    EXPECT_NE(text.find("view "), std::string::npos) << text;
    EXPECT_NE(text.find("answers {"), std::string::npos) << text;
  } else {
    EXPECT_NE(text.find("base tables only"), std::string::npos) << text;
  }

  // A query no resource answers reports base tables only.
  auto base_only = opt.Explain(
      "select Y from db0::cotype T2, T2.type Y where Y = 'hitech'");
  ASSERT_TRUE(base_only.ok()) << base_only.status().ToString();
  EXPECT_NE(base_only.value().find("base tables only"), std::string::npos);
}

}  // namespace
}  // namespace dynview
