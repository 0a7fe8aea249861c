// Failure-injection and robustness tests: malformed inputs and broken
// catalogs must produce Status errors (never crashes) through every public
// entry point; query guards (deadlines, cancellation, budgets) and injected
// faults must degrade execution exactly as documented.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/failpoint.h"
#include "common/query_context.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "core/translate.h"
#include "core/view_definition.h"
#include "engine/query_engine.h"
#include "index/view_index.h"
#include "integration/integration.h"
#include "optimizer/optimizer.h"
#include "schemasql/view_materializer.h"
#include "sql/parser.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

/// AnswerGuarded options for bag (multiset) or set semantics.
AnswerOptions Semantics(bool multiset) {
  AnswerOptions options;
  options.multiset = multiset;
  return options;
}

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StockGenConfig cfg;
    ASSERT_TRUE(InstallDb0(&catalog_, "db0", cfg).ok());
  }
  Catalog catalog_;
};

TEST_F(RobustnessTest, MalformedSqlCorpus) {
  // A small fuzz-like corpus: every string must yield a ParseError (or any
  // error), never a crash.
  const char* kCorpus[] = {
      "",
      ";",
      "select",
      "select from",
      "select a from",
      "select a from t where",
      "select a from t group",
      "select a from t order",
      "select a from -> ",
      "select a from t.b",
      "select a from ::x T",
      "select a from x -> ",
      "select a from x::y -> ",
      "select count( from t",
      "select a from t union",
      "create view",
      "create view v as select 1 from t",
      "create view v(a as select 1 from t",
      "create index i",
      "create index i as hash by given x select 1 from t",
      "create index i as btree select 1 from t",
      "select 'unterminated from t",
      "select a from t where a ===== b",
      "select ((((a from t",
      "select a, from t",
      "select a from t where a in ()",     // Empty IN list.
      "select a from t where a between 1", // Missing AND bound.
      "select a from t where a not like 'x'",  // NOT only before BETWEEN/IN.
  };
  for (const char* sql : kCorpus) {
    auto r = Parser::Parse(sql);
    EXPECT_FALSE(r.ok()) << "unexpectedly parsed: " << sql;
  }
}

TEST_F(RobustnessTest, MutationFuzzNeverCrashes) {
  // Deterministic mutation fuzzing: valid statements with random single-
  // character edits must always yield a Status (parse or bind error) —
  // never a crash or hang.
  const char* kSeeds[] = {
      "select R, D, P from s2 -> R, R T, T.date D, T.price P where P > 100",
      "create view s2::C(date, price) as select D, P from s1::stock T, "
      "T.company C, T.date D, T.price P",
      "create index i as btree by given T.infr select T.tnum from tix T",
      "select D, max(P) from db0::stock T, T.date D, T.price P group by D "
      "having min(P) > 100 order by D limit 5",
  };
  const char kBytes[] = "(),.;:<>='\"-+*/aZ09_ ";
  uint64_t state = 123456789;
  auto rnd = [&]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (const char* seed : kSeeds) {
    std::string base = seed;
    for (int i = 0; i < 300; ++i) {
      std::string mutated = base;
      int edits = 1 + static_cast<int>(rnd() % 3);
      for (int e = 0; e < edits; ++e) {
        size_t pos = rnd() % mutated.size();
        switch (rnd() % 3) {
          case 0:
            mutated[pos] = kBytes[rnd() % (sizeof(kBytes) - 1)];
            break;
          case 1:
            mutated.erase(pos, 1);
            break;
          default:
            mutated.insert(pos, 1, kBytes[rnd() % (sizeof(kBytes) - 1)]);
            break;
        }
        if (mutated.empty()) mutated = "x";
      }
      auto r = Parser::Parse(mutated);
      if (r.ok()) {
        // If it still parses, binding and evaluation must also be safe.
        if (r.value().select) {
          QueryEngine engine(&catalog_, "db0");
          auto e = engine.Execute(r.value().select.get());
          (void)e;
        }
      }
    }
  }
  SUCCEED();
}

TEST_F(RobustnessTest, EngineErrorsAreStatuses) {
  QueryEngine engine(&catalog_, "db0");
  EXPECT_FALSE(engine.ExecuteSql("select 1 from nodb::stock T").ok());
  EXPECT_FALSE(engine.ExecuteSql("select 1 from db0::nothere T").ok());
  EXPECT_FALSE(engine.ExecuteSql("select T.zzz from db0::stock T").ok());
  EXPECT_FALSE(
      engine.ExecuteSql("select 1 from db0::stock T, T.zzz X").ok());
  // Union arity mismatch.
  EXPECT_FALSE(engine
                   .ExecuteSql("select T.price from db0::stock T union "
                               "select T.price, T.date from db0::stock T")
                   .ok());
}

TEST_F(RobustnessTest, MaterializerErrorPaths) {
  QueryEngine engine(&catalog_, "db0");
  Catalog target;
  // Body errors propagate.
  EXPECT_FALSE(ViewMaterializer::MaterializeSql(
                   "create view v(a) as select X from nodb::t T, T.a X",
                   &engine, &target, "out")
                   .ok());
  // NULL labels cannot become relation names.
  Table t(Schema::FromNames({"label", "v"}));
  t.AppendRowUnchecked({Value::Null(), Value::Int(1)});
  ASSERT_TRUE(catalog_.PutTable("nulldb", "t", std::move(t)).ok());
  EXPECT_FALSE(ViewMaterializer::MaterializeSql(
                   "create view out::L(v) as select V from nulldb::t T, "
                   "T.label L, T.v V",
                   &engine, &target, "out")
                   .ok());
}

TEST_F(RobustnessTest, ViewDefinitionRestrictions) {
  // UNION bodies are outside the Sec. 5 fragment.
  EXPECT_EQ(ViewDefinition::FromSql(
                "create view v(a) as select P from db0::stock T, T.price P "
                "union select P from db0::stock T, T.price P",
                catalog_, "db0")
                .status()
                .code(),
            StatusCode::kUnsupported);
  // Higher-order bodies are outside the dynamic-view class.
  EXPECT_EQ(ViewDefinition::FromSql(
                "create view v(co, p) as select R, P from db0 -> R, R T, "
                "T.price P",
                catalog_, "db0")
                .status()
                .code(),
            StatusCode::kUnsupported);
  // Arity mismatch.
  EXPECT_EQ(ViewDefinition::FromSql(
                "create view v(a, b) as select P from db0::stock T, T.price P",
                catalog_, "db0")
                .status()
                .code(),
            StatusCode::kBindError);
}

TEST_F(RobustnessTest, TranslatorRefusesCleanly) {
  ViewDefinition view =
      ViewDefinition::FromSql(
          "create view db1::C(date, price) as select D, P from "
          "db0::stock T, T.company C, T.date D, T.price P",
          catalog_, "db0")
          .value();
  QueryTranslator translator(&catalog_, "db0");
  // Query over an unrelated table.
  auto r = translator.TranslateSql(view, "select Y from db0::cotype T, T.type Y",
                                   false);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Unparseable query.
  EXPECT_FALSE(translator.TranslateSql(view, "selectx", false).ok());
}

TEST_F(RobustnessTest, IndexBuildErrorPaths) {
  QueryEngine engine(&catalog_, "db0");
  // Two GIVEN keys unsupported.
  EXPECT_EQ(ViewIndex::BuildSql(
                "create index i as btree by given T.company, T.date "
                "select T.price from db0::stock T",
                &engine)
                .status()
                .code(),
            StatusCode::kUnsupported);
  // Body errors propagate.
  EXPECT_FALSE(ViewIndex::BuildSql(
                   "create index i as btree by given T.x "
                   "select T.y from nodb::t T",
                   &engine)
                   .ok());
}

TEST_F(RobustnessTest, OptimizerRefusalPaths) {
  Optimizer opt(&catalog_, "db0");
  EXPECT_FALSE(opt.Plan("select 1 from db0::stock T union "
                        "select 2 from db0::stock T")
                   .ok());
  EXPECT_FALSE(opt.Plan("select R from db0 -> R, R T").ok());
  EXPECT_FALSE(opt.Plan("select 1 from nodb::t T").ok());
}

TEST_F(RobustnessTest, IntegrationSystemSurfacesReasons) {
  IntegrationSystem system(&catalog_, "db0");
  // No sources: falls back to local data.
  auto local = system.AnswerGuarded(
      "select P from db0::stock T, T.price P where P > 100",
      Semantics(/*multiset=*/true));
  EXPECT_TRUE(local.ok());
  // Unregisterable source (bad SQL).
  EXPECT_FALSE(system.RegisterSource("create view nope").ok());
  // Rewrite failure carries a NotFound with the last reason.
  auto rw = system.Rewrite("select Y from db0::cotype T, T.type Y", true);
  EXPECT_EQ(rw.status().code(), StatusCode::kNotFound);
}

TEST_F(RobustnessTest, DeepExpressionNesting) {
  // Deeply parenthesized expressions should parse and evaluate (recursion
  // depth sanity, not UB).
  std::string expr = "1";
  for (int i = 0; i < 200; ++i) expr = "(" + expr + " + 1)";
  QueryEngine engine(&catalog_, "db0");
  auto r = engine.ExecuteSql("select " + expr + " from db0::cotype T");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().row(0)[0].as_int(), 201);
}

TEST_F(RobustnessTest, WideAndEmptyTables) {
  // Zero-row table: all queries well-formed, empty results.
  ASSERT_TRUE(
      catalog_.PutTable("edge", "empty", Table(Schema::FromNames({"a", "b"})))
          .ok());
  QueryEngine engine(&catalog_, "edge");
  auto r = engine.ExecuteSql("select A from edge::empty T, T.a A");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_rows(), 0u);
  auto agg = engine.ExecuteSql("select count(*) from edge::empty T");
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg.value().row(0)[0].as_int(), 0);
  // A 100-column table pivots fine.
  std::vector<std::string> names;
  for (int i = 0; i < 100; ++i) names.push_back("c" + std::to_string(i));
  Table wide(Schema::FromNames(names));
  Row row;
  for (int i = 0; i < 100; ++i) row.push_back(Value::Int(i));
  wide.AppendRowUnchecked(std::move(row));
  ASSERT_TRUE(catalog_.PutTable("edge", "wide", std::move(wide)).ok());
  auto ho = engine.ExecuteSql(
      "select A, V from edge::wide -> A, edge::wide T, T.A V");
  ASSERT_TRUE(ho.ok()) << ho.status().ToString();
  EXPECT_EQ(ho.value().num_rows(), 100u);
}

// ---------------------------------------------------------------------------
// Query guards: QueryContext, FailPoints, and their enforcement through the
// engine and the integration layer.
// ---------------------------------------------------------------------------

TEST(QueryContextTest, UnguardedAndGuardedBasics) {
  QueryContext unguarded;
  EXPECT_TRUE(unguarded.CheckGuards().ok());
  EXPECT_TRUE(unguarded.ChargeRows(1u << 20, 100).ok());

  QueryGuards g;
  g.row_budget = 10;
  QueryContext qc(g);
  EXPECT_TRUE(qc.CheckGuards().ok());
  EXPECT_TRUE(qc.ChargeRows(10, 2).ok());
  EXPECT_EQ(qc.ChargeRows(1, 2).code(), StatusCode::kResourceExhausted);
  // The trip cancelled sibling work and is sticky (first trip wins).
  EXPECT_TRUE(qc.cancel_flag()->load());
  EXPECT_EQ(qc.CheckGuards().code(), StatusCode::kResourceExhausted);
  qc.Cancel();
  EXPECT_EQ(qc.CheckGuards().code(), StatusCode::kResourceExhausted);
}

TEST(QueryContextTest, ByteBudgetTrips) {
  QueryGuards g;
  g.byte_budget = 64;  // Two cells' worth at 32 bytes/cell.
  QueryContext qc(g);
  EXPECT_TRUE(qc.ChargeRows(1, 2).ok());
  EXPECT_EQ(qc.ChargeRows(1, 1).code(), StatusCode::kResourceExhausted);
}

TEST(QueryContextTest, ZeroDeadlineTripsAtFirstCheck) {
  QueryGuards g;
  g.deadline_ms = 0;
  QueryContext qc(g);
  EXPECT_EQ(qc.CheckGuards().code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryContextTest, CancelReportsCancelled) {
  QueryContext qc;
  qc.Cancel();
  EXPECT_EQ(qc.CheckGuards().code(), StatusCode::kCancelled);
}

TEST(FailPointTest, Modes) {
  FailPoints::DisarmAll();
  EXPECT_FALSE(FailPoints::AnyArmed());
  EXPECT_TRUE(FailPoints::Check("unarmed").ok());

  FailSpec once;
  once.mode = FailMode::kErrorOnce;
  FailPoints::Arm("p", once);
  EXPECT_TRUE(FailPoints::AnyArmed());
  EXPECT_EQ(FailPoints::Check("p").code(), StatusCode::kUnavailable);
  EXPECT_TRUE(FailPoints::Check("p").ok());

  FailSpec after;
  after.mode = FailMode::kFailAfterN;
  after.after_n = 2;
  FailPoints::Arm("p", after);  // Re-arming resets the hit count.
  EXPECT_TRUE(FailPoints::Check("p").ok());
  EXPECT_TRUE(FailPoints::Check("p").ok());
  EXPECT_FALSE(FailPoints::Check("p").ok());
  EXPECT_FALSE(FailPoints::Check("p").ok());

  FailSpec matched;
  matched.mode = FailMode::kErrorAlways;
  matched.code = StatusCode::kInternal;
  matched.match = "coa";
  FailPoints::Arm("p", matched);
  EXPECT_TRUE(FailPoints::Check("p", "s2::cob").ok());
  EXPECT_EQ(FailPoints::Check("p", "s2::coa").code(), StatusCode::kInternal);

  FailSpec slow;
  slow.mode = FailMode::kLatency;
  slow.latency_ms = 10;
  FailPoints::Arm("lat", slow);
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(FailPoints::Check("lat").ok());  // Latency injects, not errors.
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 9);

  FailPoints::Disarm("lat");
  FailPoints::DisarmAll();
  EXPECT_FALSE(FailPoints::AnyArmed());
}

TEST(FailPointTest, ArmFromString) {
  FailPoints::DisarmAll();
  ASSERT_TRUE(
      FailPoints::ArmFromString("a=error-once; b=fail-after(1)@det").ok());
  EXPECT_EQ(FailPoints::Check("a").code(), StatusCode::kUnavailable);
  EXPECT_TRUE(FailPoints::Check("a").ok());
  EXPECT_TRUE(FailPoints::Check("b", "nomatch").ok());
  EXPECT_TRUE(FailPoints::Check("b", "has det").ok());   // Hit 0 passes.
  EXPECT_FALSE(FailPoints::Check("b", "has det").ok());  // Hit 1 fails.

  EXPECT_FALSE(FailPoints::ArmFromString("nonsense").ok());
  EXPECT_FALSE(FailPoints::ArmFromString("a=bogus-mode").ok());
  EXPECT_FALSE(FailPoints::ArmFromString("a=fail-after").ok());
  FailPoints::DisarmAll();
}

TEST(ThreadPoolGuardTest, TrySubmitAppliesBackpressure) {
  ThreadPool pool(1, /*max_queued=*/2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> started{false};
  std::atomic<int> ran{0};
  pool.Submit([&] {
    started.store(true);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    ran.fetch_add(1);
  });
  while (!started.load()) std::this_thread::yield();
  // The worker is pinned; the queue (cap 2) fills, then refuses.
  EXPECT_TRUE(pool.TrySubmit([&] { ran.fetch_add(1); }));
  EXPECT_TRUE(pool.TrySubmit([&] { ran.fetch_add(1); }));
  EXPECT_FALSE(pool.TrySubmit([&] { ran.fetch_add(1); }));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (int i = 0; i < 2000 && ran.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ran.load(), 3);  // Accepted tasks all ran; the refused one never.
}

TEST(ThreadPoolGuardTest, ParallelForSkipsIterationsAfterCancel) {
  ThreadPool pool(3);
  std::atomic<bool> cancel{false};
  std::atomic<int> executed{0};
  pool.ParallelFor(
      10000,
      [&](size_t) {
        executed.fetch_add(1);
        cancel.store(true);
      },
      &cancel);
  // The first iteration cancels; only iterations already claimed by the
  // participating threads may still run. Everything else is skipped, yet
  // ParallelFor still returns (all iterations accounted for).
  EXPECT_GE(executed.load(), 1);
  EXPECT_LE(executed.load(), 8);
}

/// Engine + integration guard tests over the paper's stock data: db0 holds
/// the Fig. 10 federation tables, s2 the one-relation-per-company layout
/// whose higher-order queries fan out one grounding per source relation.
class GuardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::DisarmAll();
    StockGenConfig cfg;
    ASSERT_TRUE(InstallDb0(&catalog_, "db0", cfg).ok());
    ASSERT_TRUE(InstallStockS2(&catalog_, "s2", GenerateStockS1(cfg)).ok());
  }
  void TearDown() override { FailPoints::DisarmAll(); }

  static ExecConfig Threads(size_t n) {
    ExecConfig e;
    e.num_threads = n;
    e.morsel_rows = 4;  // Tiny morsels so test-sized tables run parallel.
    return e;
  }

  // One grounding per company relation; 15 rows (3 companies × 5 dates).
  static constexpr const char* kFanOut =
      "select R, D, P from s2 -> R, R T, T.date D, T.price P";

  Catalog catalog_;
};

TEST_F(GuardTest, ZeroDeadlineCancelsParallelQuery) {
  QueryGuards g;
  g.deadline_ms = 0;
  QueryContext qc(g);
  QueryEngine engine(&catalog_, "s2", Threads(4));
  auto r = engine.ExecuteSql(kFanOut, &qc);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(GuardTest, DeadlineExpiresMidQuery) {
  // Each grounding sleeps 30ms; the 10ms deadline therefore expires while
  // the fan-out is in flight and must surface as kDeadlineExceeded.
  FailSpec slow;
  slow.mode = FailMode::kLatency;
  slow.latency_ms = 30;
  FailPoints::Arm("engine.grounding", slow);
  QueryGuards g;
  g.deadline_ms = 10;
  QueryContext qc(g);
  QueryEngine engine(&catalog_, "s2", Threads(4));
  auto r = engine.ExecuteSql(kFanOut, &qc);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(GuardTest, ConcurrentCancelStopsParallelGrounding) {
  FailSpec slow;
  slow.mode = FailMode::kLatency;
  slow.latency_ms = 50;
  FailPoints::Arm("engine.grounding", slow);
  QueryContext qc;
  QueryEngine engine(&catalog_, "s2", Threads(4));
  std::thread canceller([&qc] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    qc.Cancel();
  });
  auto r = engine.ExecuteSql(kFanOut, &qc);
  canceller.join();
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST_F(GuardTest, RowBudgetStopsCrossProduct) {
  // 15 × 15 cross product against a 100-row budget: the product must trip
  // kResourceExhausted instead of materializing all 225 rows.
  QueryGuards g;
  g.row_budget = 100;
  QueryContext qc(g);
  QueryEngine engine(&catalog_, "db0", Threads(1));
  auto r = engine.ExecuteSql("select 1 from db0::stock T, db0::stock S", &qc);
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_LE(qc.rows_charged(), 200u);  // Stopped well short of 225 + scans.
}

TEST_F(GuardTest, RetryPolicySucceedsUnderErrorOnce) {
  FailSpec once;
  once.mode = FailMode::kErrorOnce;
  once.match = "coa";
  FailPoints::Arm("engine.grounding", once);
  QueryGuards g;
  g.source_policy = SourcePolicy::kRetry;
  QueryContext qc(g);
  QueryEngine engine(&catalog_, "s2", Threads(4));
  auto r = engine.ExecuteSql(kFanOut, &qc);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().num_rows(), 15u);  // Retried grounding contributed.
  EXPECT_TRUE(qc.warnings().empty());
}

TEST_F(GuardTest, RetryPolicyGivesUpOnPersistentFault) {
  FailSpec always;
  always.mode = FailMode::kErrorAlways;
  always.match = "coa";
  FailPoints::Arm("engine.grounding", always);
  QueryGuards g;
  g.source_policy = SourcePolicy::kRetry;
  g.max_retries = 1;
  QueryContext qc(g);
  QueryEngine engine(&catalog_, "s2", Threads(1));
  EXPECT_EQ(engine.ExecuteSql(kFanOut, &qc).status().code(),
            StatusCode::kUnavailable);
}

TEST_F(GuardTest, SkipAndReportIsDeterministicAcrossThreadCounts) {
  // An unavailable source relation (injected at catalog resolution) yields
  // the same partial result and the same warning list no matter how many
  // threads evaluate the fan-out.
  FailSpec down;
  down.mode = FailMode::kErrorAlways;
  down.match = "s2::coa";
  FailPoints::Arm("catalog.resolve", down);
  std::vector<std::string> warning_sources[2];
  size_t rows[2] = {0, 0};
  const size_t thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    QueryGuards g;
    g.source_policy = SourcePolicy::kSkipAndReport;
    QueryContext qc(g);
    QueryEngine engine(&catalog_, "s2", Threads(thread_counts[i]));
    auto r = engine.ExecuteSql(kFanOut, &qc);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    rows[i] = r.value().num_rows();
    for (const SourceWarning& w : qc.warnings()) {
      warning_sources[i].push_back(w.source);
      EXPECT_EQ(w.status.code(), StatusCode::kUnavailable);
    }
  }
  EXPECT_EQ(rows[0], 10u);  // coB + coC only.
  EXPECT_EQ(rows[0], rows[1]);
  ASSERT_EQ(warning_sources[0].size(), 1u);
  EXPECT_EQ(warning_sources[0], warning_sources[1]);
  EXPECT_NE(ToLower(warning_sources[0][0]).find("coa"), std::string::npos);
}

TEST_F(GuardTest, NonTransientErrorsNeverSkip) {
  // kSkipAndReport only negotiates *availability*: a semantic error in a
  // grounding still fails the whole query.
  FailSpec broken;
  broken.mode = FailMode::kErrorAlways;
  broken.code = StatusCode::kInternal;
  broken.match = "coa";
  FailPoints::Arm("engine.grounding", broken);
  QueryGuards g;
  g.source_policy = SourcePolicy::kSkipAndReport;
  QueryContext qc(g);
  QueryEngine engine(&catalog_, "s2", Threads(1));
  EXPECT_EQ(engine.ExecuteSql(kFanOut, &qc).status().code(),
            StatusCode::kInternal);
  EXPECT_TRUE(qc.warnings().empty());
}

TEST_F(GuardTest, IntegrationPartialResultNamesSkippedSource) {
  // The Fig. 6 acceptance scenario: I::stock data is integrated through a
  // per-company dynamic view; one company's source relation goes down; a
  // guarded query returns the other companies' rows plus a warning naming
  // the lost source.
  Catalog cat;
  StockGenConfig cfg;
  ASSERT_TRUE(InstallStockS1(&cat, "I", GenerateStockS1(cfg)).ok());
  IntegrationSystem system(&cat, "I");
  ASSERT_TRUE(system
                  .RegisterAndMaterializeSource(
                      "create view src::C(date, price) as select D, P from "
                      "I::stock T, T.company C, T.date D, T.price P")
                  .ok());
  const std::string sql =
      "select C, P from I::stock T, T.company C, T.price P where P > 100";
  auto full = system.AnswerGuarded(sql, Semantics(/*multiset=*/true));
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  size_t expect_partial = 0;
  for (const Row& r : full.value().table.rows()) {
    if (!EqualsIgnoreCase(r[0].ToLabel(), "coa")) ++expect_partial;
  }
  ASSERT_GT(expect_partial, 0u);
  // coA does match P>100.
  ASSERT_LT(expect_partial, full.value().table.num_rows());

  FailSpec down;
  down.mode = FailMode::kErrorAlways;
  down.match = "src::coa";
  FailPoints::Arm("catalog.resolve", down);
  AnswerOptions opts;
  opts.multiset = true;
  opts.guards.source_policy = SourcePolicy::kSkipAndReport;
  auto partial = system.AnswerGuarded(sql, opts);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial.value().table.num_rows(), expect_partial);
  ASSERT_EQ(partial.value().warnings.size(), 1u);
  EXPECT_NE(ToLower(partial.value().warnings[0].source).find("coa"),
            std::string::npos);
  EXPECT_EQ(partial.value().warnings[0].status.code(),
            StatusCode::kUnavailable);

  // Fail-fast (the default) refuses instead of degrading.
  AnswerOptions strict;
  strict.multiset = true;
  auto refused = system.AnswerGuarded(sql, strict);
  EXPECT_FALSE(refused.ok());
}

TEST_F(GuardTest, IntegrationDeadlineSurfaces) {
  IntegrationSystem system(&catalog_, "db0");
  AnswerOptions opts;
  opts.guards.deadline_ms = 0;
  auto r = system.AnswerGuarded(
      "select P from db0::stock T, T.price P where P > 100", opts);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(GuardTest, CallerSuppliedContextAllowsExternalCancel) {
  FailSpec slow;
  slow.mode = FailMode::kLatency;
  slow.latency_ms = 50;
  FailPoints::Arm("catalog.resolve", slow);
  IntegrationSystem system(&catalog_, "db0");
  QueryGuards g;
  QueryContext qc(g);
  std::thread canceller([&qc] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    qc.Cancel();
  });
  auto r = system.AnswerGuarded(
      "select P from db0::stock T, T.price P where P > 100", AnswerOptions{},
      &qc);
  canceller.join();
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST_F(GuardTest, ViewMaterializerObservesGuards) {
  QueryGuards g;
  g.deadline_ms = 0;
  QueryContext qc(g);
  QueryEngine engine(&catalog_, "db0", Threads(1));
  Catalog target;
  auto r = ViewMaterializer::MaterializeSql(
      "create view out::C(date, price) as select D, P from db0::stock T, "
      "T.company C, T.date D, T.price P",
      &engine, &target, "out", &qc);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(target.num_databases(), 0u);  // Nothing partially installed.
}

}  // namespace
}  // namespace dynview
