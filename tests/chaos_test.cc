// Chaos suite (ctest -L chaos): N query threads race M catalog mutators on
// one federation, with latency/error failpoints armed, and every answer is
// checked against the versioned-snapshot contract:
//
//   * each AnswerResult records the snapshot it read; re-executing the same
//     query serially against that snapshot reproduces the answer
//     byte-for-byte (the MVCC consistency oracle);
//   * tables mutated together in one transaction are never observed out of
//     lock-step by any reader (commit-or-nothing, even under injection);
//   * published catalog versions are unique and monotonic.
//
// scripts/run_experiments.sh additionally runs this binary under
// ThreadSanitizer with DYNVIEW_FAILPOINTS armed.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/query_context.h"
#include "engine/query_engine.h"
#include "integration/integration.h"
#include "observe/observer.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

// Schema-variable fan-out over the mutating database: the grounding set
// (which relations exist) is itself snapshot-dependent, so a query that
// mixed versions would join relations from different worlds.
constexpr char kFanOut[] =
    "select R, D, P from s2 -> R, R T, T.date D, T.price P";

Schema StockLeafSchema() {
  return Schema({{"date", TypeKind::kDate}, {"price", TypeKind::kInt}});
}

Row LeafRow(int i) {
  return {Value::MakeDate(Date::Parse("1999-01-01").value().AddDays(i)),
          Value::Int(100 + i % 250)};
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::DisarmAll();
    StockGenConfig cfg;
    Table s1 = GenerateStockS1(cfg);
    ASSERT_TRUE(InstallStockS1(&catalog_, "I", s1).ok());
    ASSERT_TRUE(InstallStockS2(&catalog_, "s2", s1).ok());
  }
  void TearDown() override { FailPoints::DisarmAll(); }

  Catalog catalog_;
};

// One recorded concurrent answer: what the query saw, for later replay.
struct Recorded {
  std::string bytes;  // Full table rendering, no truncation.
  uint64_t version = 0;
  std::shared_ptr<const CatalogSnapshot> snapshot;
};

TEST_F(ChaosTest, AnswersMatchSerialReplayAgainstTheirSnapshot) {
  // Latency injection widens the read window so commits land mid-query;
  // error modes stay off in this phase so replays are byte-comparable.
  FailSpec slow;
  slow.mode = FailMode::kLatency;
  slow.latency_ms = 1;
  FailPoints::Arm("engine.grounding", slow);

  IntegrationSystem system(&catalog_, "s2");
  constexpr int kQueryThreads = 4;
  constexpr int kMutatorThreads = 2;
  constexpr int kQueriesPerThread = 12;
  constexpr int kMutationsPerThread = 30;

  std::mutex mu;
  std::vector<Recorded> recorded;
  std::vector<uint64_t> committed;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        AnswerOptions options;
        options.multiset = true;
        auto r = system.AnswerGuarded(kFanOut, options);
        if (!r.ok()) {
          failures.fetch_add(1);
          continue;
        }
        Recorded rec{r.value().table.ToString(0), r.value().snapshot_version,
                     r.value().snapshot};
        std::lock_guard<std::mutex> lock(mu);
        recorded.push_back(std::move(rec));
      }
    });
  }
  for (int m = 0; m < kMutatorThreads; ++m) {
    threads.emplace_back([&, m] {
      for (int i = 0; i < kMutationsPerThread; ++i) {
        std::string extra = "cox" + std::to_string(m) + std::to_string(i % 4);
        Result<uint64_t> v = catalog_.Mutate([&](CatalogTxn& txn) -> Status {
          DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase("s2"));
          if (db->HasTable(extra)) {
            DV_RETURN_IF_ERROR(db->DropTable(extra));
          } else {
            Table t(StockLeafSchema());
            t.AppendRowUnchecked(LeafRow(i));
            t.AppendRowUnchecked(LeafRow(i + 1));
            db->PutTable(extra, std::move(t));
          }
          // Same transaction also grows an always-present relation, so a
          // mixed-version read would show a row count no single version has.
          DV_ASSIGN_OR_RETURN(Table * coa, db->GetMutableTable("coa"));
          coa->AppendRowUnchecked(LeafRow(100 + i));
          return Status::OK();
        });
        ASSERT_TRUE(v.ok()) << v.status().ToString();
        std::lock_guard<std::mutex> lock(mu);
        committed.push_back(v.value());
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  ASSERT_EQ(recorded.size(),
            static_cast<size_t>(kQueryThreads * kQueriesPerThread));

  // Published versions are unique (every commit is its own version).
  std::set<uint64_t> unique(committed.begin(), committed.end());
  EXPECT_EQ(unique.size(), committed.size());

  // The oracle: serial replay pinned to the recorded snapshot reproduces
  // every concurrent answer byte-for-byte.
  FailPoints::DisarmAll();
  for (const Recorded& rec : recorded) {
    ASSERT_NE(rec.snapshot, nullptr);
    AnswerOptions options;
    options.multiset = true;
    QueryContext qc(options.guards);
    qc.PinSnapshot(rec.snapshot);
    auto replay = system.AnswerGuarded(kFanOut, options, &qc);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(replay.value().snapshot_version, rec.version);
    EXPECT_EQ(replay.value().table.ToString(0), rec.bytes)
        << "answer diverged from serial replay at version " << rec.version;
  }
}

TEST_F(ChaosTest, PairedTablesAreNeverObservedOutOfLockStep) {
  // inv::pair_a and inv::pair_b only ever change in the same transaction, so
  // no snapshot may show them with different row counts.
  ASSERT_TRUE(catalog_
                  .Mutate([&](CatalogTxn& txn) -> Status {
                    Database* db = txn.GetOrCreateDatabase("inv");
                    db->PutTable("pair_a", Table(StockLeafSchema()));
                    db->PutTable("pair_b", Table(StockLeafSchema()));
                    return Status::OK();
                  })
                  .ok());
  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kWrites = 50;
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      uint64_t last_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const CatalogSnapshot> snap = catalog_.Snapshot();
        if (snap->version() < last_version) violations.fetch_add(1);
        last_version = snap->version();
        auto a = snap->ResolveTable("inv", "pair_a");
        auto b = snap->ResolveTable("inv", "pair_b");
        if (!a.ok() || !b.ok() ||
            a.value()->num_rows() != b.value()->num_rows()) {
          violations.fetch_add(1);
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kWrites; ++i) {
        auto v = catalog_.Mutate([&](CatalogTxn& txn) -> Status {
          DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase("inv"));
          DV_ASSIGN_OR_RETURN(Table * a, db->GetMutableTable("pair_a"));
          DV_ASSIGN_OR_RETURN(Table * b, db->GetMutableTable("pair_b"));
          a->AppendRowUnchecked(LeafRow(w * kWrites + i));
          b->AppendRowUnchecked(LeafRow(w * kWrites + i));
          return Status::OK();
        });
        ASSERT_TRUE(v.ok());
      }
    });
  }
  for (size_t i = kReaders; i < threads.size(); ++i) threads[i].join();
  stop.store(true, std::memory_order_relaxed);
  for (int i = 0; i < kReaders; ++i) threads[i].join();
  EXPECT_EQ(violations.load(), 0);
  const Table* a = catalog_.ResolveTable("inv", "pair_a").value();
  EXPECT_EQ(a->num_rows(), static_cast<size_t>(kWriters * kWrites));
}

TEST_F(ChaosTest, InjectedCommitFailuresPublishNothing) {
  ASSERT_TRUE(catalog_
                  .Mutate([&](CatalogTxn& txn) -> Status {
                    Database* db = txn.GetOrCreateDatabase("inv");
                    db->PutTable("pair_a", Table(StockLeafSchema()));
                    db->PutTable("pair_b", Table(StockLeafSchema()));
                    return Status::OK();
                  })
                  .ok());
  // Every third commit touching inv aborts at the publish fence. Readers
  // must keep seeing committed versions only.
  FailSpec flaky;
  flaky.mode = FailMode::kFailAfterN;
  flaky.after_n = 3;
  flaky.match = "inv";
  FailPoints::Arm("catalog.commit", flaky);

  constexpr int kWriters = 2;
  constexpr int kWrites = 40;
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const CatalogSnapshot> snap = catalog_.Snapshot();
        auto a = snap->ResolveTable("inv", "pair_a");
        auto b = snap->ResolveTable("inv", "pair_b");
        if (!a.ok() || !b.ok() ||
            a.value()->num_rows() != b.value()->num_rows()) {
          violations.fetch_add(1);
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kWrites; ++i) {
        auto v = catalog_.Mutate([&](CatalogTxn& txn) -> Status {
          DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase("inv"));
          DV_ASSIGN_OR_RETURN(Table * a, db->GetMutableTable("pair_a"));
          DV_ASSIGN_OR_RETURN(Table * b, db->GetMutableTable("pair_b"));
          a->AppendRowUnchecked(LeafRow(w * kWrites + i));
          b->AppendRowUnchecked(LeafRow(w * kWrites + i));
          return Status::OK();
        });
        if (v.ok()) {
          successes.fetch_add(1);
        } else {
          EXPECT_EQ(v.status().code(), StatusCode::kUnavailable);
        }
      }
    });
  }
  for (size_t i = 3; i < threads.size(); ++i) threads[i].join();
  stop.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 3; ++i) threads[i].join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(successes.load(), 0);
  EXPECT_LT(successes.load(), kWriters * kWrites);  // Injection did abort.
  // Aborted commits left no trace: the final count equals the successes.
  const Table* a = catalog_.ResolveTable("inv", "pair_a").value();
  const Table* b = catalog_.ResolveTable("inv", "pair_b").value();
  EXPECT_EQ(a->num_rows(), static_cast<size_t>(successes.load()));
  EXPECT_EQ(b->num_rows(), static_cast<size_t>(successes.load()));
}

TEST_F(ChaosTest, ConcurrentAnswerGuardedIsDeterministicPerThread) {
  // Satellite: T threads share ONE IntegrationSystem (one engine, one worker
  // pool). Every thread must get the single-threaded reference answer with
  // the same warnings in the same order and the same invariant counters —
  // per-query state (context, observer, snapshot) never bleeds across calls.
  FailSpec down;
  down.mode = FailMode::kErrorAlways;
  down.match = "s2::coa";
  FailPoints::Arm("catalog.resolve", down);

  IntegrationSystem system(&catalog_, "s2");
  AnswerOptions options;
  options.multiset = true;
  options.guards.source_policy = SourcePolicy::kSkipAndReport;

  auto reference = system.AnswerGuarded(kFanOut, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_NE(reference.value().observer, nullptr);
  const std::string ref_bytes = reference.value().table.ToString(0);
  ASSERT_EQ(reference.value().warnings.size(), 1u);
  const std::string ref_warning = reference.value().warnings[0].source;
  const uint64_t ref_scanned =
      reference.value().observer->metrics.Value(counters::kRowsScanned);
  const uint64_t ref_skipped =
      reference.value().observer->metrics.Value(counters::kSourcesSkipped);

  constexpr int kThreads = 8;
  std::vector<Result<AnswerResult>> results(kThreads, Status::OK());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { results[t] = system.AnswerGuarded(kFanOut, options); });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].ok()) << results[t].status().ToString();
    const AnswerResult& r = results[t].value();
    EXPECT_EQ(r.table.ToString(0), ref_bytes);
    ASSERT_EQ(r.warnings.size(), 1u);
    EXPECT_EQ(r.warnings[0].source, ref_warning);
    ASSERT_NE(r.observer, nullptr);
    // Deterministic sharded-counter merge: invariant counters match the
    // single-threaded reference exactly, every thread.
    EXPECT_EQ(r.observer->metrics.Value(counters::kRowsScanned), ref_scanned);
    EXPECT_EQ(r.observer->metrics.Value(counters::kSourcesSkipped),
              ref_skipped);
  }
}

// ---- Cached executable plans under faults and guards ----------------------

std::string Render(const Result<AnswerResult>& r) {
  if (!r.ok()) return "status{" + r.status().ToString() + "}";
  std::string out = r.value().table.ToString(0);
  for (const SourceWarning& w : r.value().warnings) {
    out += "\nwarning " + w.source + ": " + w.status.ToString();
  }
  return out;
}

TEST_F(ChaosTest, FaultsArmedAfterCachingMatchTheColdAnswer) {
  // The plan is cached while nothing is armed; then a source fails. The hit
  // resolves and grounds every cached grounding again, so retry and
  // skip-and-report give what a cold answer gives under the same fault.
  struct Case {
    const char* point;
    const char* match;
    FailMode mode;
    SourcePolicy policy;
  };
  const Case cases[] = {
      {"catalog.resolve", "s2::coa", FailMode::kErrorAlways,
       SourcePolicy::kSkipAndReport},
      {"engine.grounding", "cob", FailMode::kErrorAlways,
       SourcePolicy::kSkipAndReport},
      {"catalog.resolve", "s2::coa", FailMode::kErrorAlways,
       SourcePolicy::kRetry},
      {"engine.grounding", "cob", FailMode::kErrorOnce, SourcePolicy::kRetry},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.point) + " " + c.match);
    FailPoints::DisarmAll();
    AnswerOptions options;
    options.multiset = true;
    options.guards.source_policy = c.policy;
    options.guards.retry_sleep = [](int) {};
    FailSpec spec;
    spec.mode = c.mode;
    spec.match = c.match;

    IntegrationSystem warm_system(&catalog_, "s2");
    ASSERT_TRUE(warm_system.AnswerGuarded(kFanOut, options).ok());
    FailPoints::Arm(c.point, spec);
    auto warm = warm_system.AnswerGuarded(kFanOut, options);
    FailPoints::DisarmAll();

    FailPoints::Arm(c.point, spec);
    IntegrationSystem cold_system(&catalog_, "s2");
    auto cold = cold_system.AnswerGuarded(kFanOut, options);
    FailPoints::DisarmAll();

    if (warm.ok()) {
      EXPECT_TRUE(warm.value().plan_cached);
    }
    if (cold.ok()) {
      EXPECT_FALSE(cold.value().plan_cached);
    }
    EXPECT_EQ(Render(warm), Render(cold));
  }
}

TEST_F(ChaosTest, PlansBuiltWhileAFailpointIsArmedAreNotKept) {
  // With s2::coa failing, enumerating the attribute variable's range finds
  // no attributes: the answer is empty. That enumeration must not outlive
  // the fault — once disarmed, the next answer (a hit on the rewriting
  // entry) grounds again and is complete.
  const std::string q = "select A, T.A from s2::coa -> A, s2::coa T";
  AnswerOptions options;
  options.multiset = true;
  auto reference = IntegrationSystem(&catalog_, "s2").AnswerGuarded(q, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_GT(reference.value().table.num_rows(), 0u);

  IntegrationSystem system(&catalog_, "s2");
  FailSpec down;
  down.mode = FailMode::kErrorAlways;
  down.match = "s2::coa";
  FailPoints::Arm("catalog.resolve", down);
  auto degraded = system.AnswerGuarded(q, options);
  FailPoints::DisarmAll();
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded.value().table.num_rows(), 0u);

  for (int i = 0; i < 2; ++i) {
    auto healed = system.AnswerGuarded(q, options);
    ASSERT_TRUE(healed.ok()) << healed.status().ToString();
    EXPECT_TRUE(healed.value().plan_cached);
    EXPECT_EQ(Render(healed), Render(reference));
  }
}

TEST_F(ChaosTest, GuardsTripOnAHitBeforeAnyGroundingRuns) {
  IntegrationSystem system(&catalog_, "s2");
  AnswerOptions options;
  options.multiset = true;
  ASSERT_TRUE(system.AnswerGuarded(kFanOut, options).ok());

  auto expect_tripped = [&](QueryContext* qc, StatusCode code) {
    QueryObserver obs;
    qc->set_observer(&obs);
    auto r = system.AnswerGuarded(kFanOut, options, qc);
    qc->set_observer(nullptr);
    EXPECT_EQ(r.status().code(), code) << Render(r);
    EXPECT_EQ(obs.metrics.Value(counters::kPlanCacheHits), 1u);
    EXPECT_EQ(obs.metrics.Value(counters::kGroundingsEvaluated), 0u);
    EXPECT_EQ(obs.metrics.Value(counters::kRowsScanned), 0u);
  };
  {
    QueryGuards g = options.guards;
    g.deadline_ms = 0;
    QueryContext qc(g);
    expect_tripped(&qc, StatusCode::kDeadlineExceeded);
  }
  {
    QueryContext qc(options.guards);
    qc.Cancel();
    expect_tripped(&qc, StatusCode::kCancelled);
  }
}

TEST_F(ChaosTest, StaleSourceIsFencedWithWarningAndCounter) {
  // Warehouse direction: I holds the data, the source materialization is
  // derived — so it carries a fence at its build version.
  IntegrationSystem system(&catalog_, "I");
  ASSERT_TRUE(system
                  .RegisterAndMaterializeSource(
                      "create view s2x::C(date, price) as select D, P from "
                      "I::stock T, T.company C, T.date D, T.price P")
                  .ok());
  const char* query =
      "select C, P from I::stock T, T.company C, T.price P where P >= 0";
  AnswerOptions options;
  options.multiset = true;

  auto fresh = system.AnswerGuarded(query, options);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_TRUE(fresh.value().warnings.empty());  // Source is current.
  size_t fresh_rows = fresh.value().table.num_rows();
  std::shared_ptr<const CatalogSnapshot> old_snap = fresh.value().snapshot;

  // I moves on; the materialized source now lags behind the head version.
  ASSERT_TRUE(catalog_
                  .Mutate([&](CatalogTxn& txn) -> Status {
                    DV_ASSIGN_OR_RETURN(Database * db,
                                        txn.GetMutableDatabase("I"));
                    DV_ASSIGN_OR_RETURN(Table * stock,
                                        db->GetMutableTable("stock"));
                    stock->AppendRowUnchecked(
                        {Value::String("newco"),
                         Value::MakeDate(Date::Parse("1999-06-01").value()),
                         Value::Int(7)});
                    return Status::OK();
                  })
                  .ok());

  auto stale = system.AnswerGuarded(query, options);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  // Fenced: deterministic warning, counter bump, and the baseline plan on I
  // answered — including the row the stale materialization lacks.
  ASSERT_EQ(stale.value().warnings.size(), 1u);
  EXPECT_EQ(stale.value().warnings[0].source, "s2x::C");
  EXPECT_EQ(stale.value().warnings[0].status.code(), StatusCode::kUnavailable);
  ASSERT_NE(stale.value().observer, nullptr);
  EXPECT_EQ(
      stale.value().observer->metrics.Value(counters::kCatalogStalePath), 1u);
  EXPECT_EQ(stale.value().table.num_rows(), fresh_rows + 1);

  // Replaying against the pre-mutation snapshot sees no staleness and the
  // original answer: staleness is a property of the pinned version.
  QueryContext qc(options.guards);
  qc.PinSnapshot(old_snap);
  auto replay = system.AnswerGuarded(query, options, &qc);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay.value().warnings.empty());
  EXPECT_EQ(replay.value().table.ToString(0), fresh.value().table.ToString(0));
}

TEST_F(ChaosTest, DdlRacingFencedMaterializationDegradesToWarning) {
  // Schema evolution vs. a fenced materialized source: query threads race
  // mutators that (a) drop and restore one of the view's materialization
  // partitions, (b) rename the base relation away and back, and (c) grow the
  // base data so the materialization lags. The contract under fire: every
  // answer either matches a serial direct execution against its own pinned
  // snapshot (stale fencing fell back to base data) or fails with the SAME
  // status the direct engine reports — a deterministic warning, never a
  // crash and never silently stale rows.
  IntegrationSystem system(&catalog_, "I");
  ASSERT_TRUE(system
                  .RegisterAndMaterializeSource(
                      "create view s2x::C(date, price) as select D, P from "
                      "I::stock T, T.company C, T.date D, T.price P")
                  .ok());
  const char* query =
      "select C, P from I::stock T, T.company C, T.price P where P >= 0";
  AnswerOptions options;
  options.multiset = true;
  QueryEngine direct(&catalog_, "I", ExecConfig{});

  auto canon = [](const Table& t) {
    Table c = t;
    c.SortRows();
    return c.ToString(0);
  };

  std::atomic<int> oracle_violations{0};
  std::atomic<int> warned_answers{0};
  std::mutex mu;
  std::string first_violation;
  auto violation = [&](const std::string& what) {
    oracle_violations.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    if (first_violation.empty()) first_violation = what;
  };

  constexpr int kQueryThreads = 3;
  constexpr int kQueriesPerThread = 15;
  constexpr int kMutations = 20;
  std::vector<std::thread> threads;
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        // Pin the snapshot before answering: a failed answer carries none,
        // and the reference must replay the very version the answer read
        // (not a later head the mutators have since moved on from).
        QueryContext answer_qc(options.guards);
        answer_qc.PinSnapshot(catalog_.Snapshot());
        auto r = system.AnswerGuarded(query, options, &answer_qc);
        QueryContext qc;
        qc.PinSnapshot(answer_qc.snapshot());
        auto ref = direct.ExecuteSql(query, &qc);
        if (r.ok() != ref.ok()) {
          violation("answer ok=" + std::string(r.ok() ? "1" : "0") +
                    " but direct ok=" + (ref.ok() ? "1" : "0"));
          continue;
        }
        if (r.ok()) {
          if (canon(r.value().table) != canon(ref.value())) {
            violation("rows diverge from direct replay on pinned snapshot");
          }
          if (!r.value().warnings.empty()) warned_answers.fetch_add(1);
        } else if (r.status().code() != ref.status().code()) {
          violation("status " + r.status().ToString() + " vs direct " +
                    ref.status().ToString());
        }
      }
    });
  }
  threads.emplace_back([&] {  // Drop/restore one materialization partition.
    for (int i = 0; i < kMutations; ++i) {
      (void)catalog_.Mutate([&](CatalogTxn& txn) -> Status {
        DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase("s2x"));
        std::vector<std::string> names = db->TableNames();
        if (names.empty()) return Status::OK();
        if (db->HasTable(names[0])) {
          DV_RETURN_IF_ERROR(db->DropTable(names[0]));
        }
        return Status::OK();
      });
    }
  });
  threads.emplace_back([&] {  // Rename the base relation away and back.
    for (int i = 0; i < kMutations; ++i) {
      (void)catalog_.Mutate([&](CatalogTxn& txn) -> Status {
        DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase("I"));
        if (db->HasTable("stock")) {
          DV_ASSIGN_OR_RETURN(Table * t, db->GetMutableTable("stock"));
          Table moved = *t;
          DV_RETURN_IF_ERROR(db->DropTable("stock"));
          db->PutTable("stockx", std::move(moved));
        } else if (db->HasTable("stockx")) {
          DV_ASSIGN_OR_RETURN(Table * t, db->GetMutableTable("stockx"));
          Table moved = *t;
          DV_RETURN_IF_ERROR(db->DropTable("stockx"));
          db->PutTable("stock", std::move(moved));
        }
        return Status::OK();
      });
    }
  });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(oracle_violations.load(), 0) << first_violation;

  // Deterministic epilogue: leave the base present and the materialization
  // stale, and pin one snapshot — the answer must carry the DV007-style
  // stale warning for the source and still match the direct rows exactly.
  (void)catalog_.Mutate([&](CatalogTxn& txn) -> Status {
    DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase("I"));
    if (!db->HasTable("stock") && db->HasTable("stockx")) {
      DV_ASSIGN_OR_RETURN(Table * t, db->GetMutableTable("stockx"));
      Table moved = *t;
      DV_RETURN_IF_ERROR(db->DropTable("stockx"));
      db->PutTable("stock", std::move(moved));
    }
    return Status::OK();
  });
  auto final_answer = system.AnswerGuarded(query, options);
  ASSERT_TRUE(final_answer.ok()) << final_answer.status().ToString();
  ASSERT_GE(final_answer.value().warnings.size(), 1u);
  EXPECT_EQ(final_answer.value().warnings[0].source, "s2x::C");
  EXPECT_EQ(final_answer.value().warnings[0].status.code(),
            StatusCode::kUnavailable);
  QueryContext qc;
  qc.PinSnapshot(final_answer.value().snapshot);
  auto ref = direct.ExecuteSql(query, &qc);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(canon(final_answer.value().table), canon(ref.value()));
}

}  // namespace
}  // namespace dynview
