// The plan cache's shape tier (ctest -L compiled): an exact miss reuses the
// Alg. 5.1 rewriting cached under the query's parameterized shape when the
// implication answers the probe took from the literals replay equal over
// the new values (LiteralGuard), and runs the full probe otherwise.
//
// Every answer and EXPLAIN below is compared with the cold answer or
// EXPLAIN of the same SQL on a fresh system over the same catalog: a shape
// hit must be indistinguishable from a probe of the new query, and so must
// the fallback when a guard answer flips.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "integration/integration.h"

namespace dynview {
namespace {

Value Day(int d) { return Value::MakeDate(Date::FromYmd(1998, 1, d).value()); }

/// A catalog plus the source definitions registered, in order, on every
/// system built over it. Sources are registered, not materialized: the
/// fixtures install the materializations themselves.
class ShapeCacheTest : public ::testing::Test {
 protected:
  std::unique_ptr<IntegrationSystem> Fresh() {
    auto system = std::make_unique<IntegrationSystem>(&catalog_, "I");
    for (const std::string& view : views_) {
      EXPECT_TRUE(system->RegisterSource(view).ok()) << view;
    }
    return system;
  }

  /// Answers `sql` on system_ and on a fresh system (cold), and checks the
  /// two agree: same rows in the same order, same warnings. Returns
  /// system_'s answer.
  AnswerResult AnswerMatchesCold(const std::string& sql, bool multiset) {
    AnswerOptions options;
    options.multiset = multiset;
    auto got = system_->AnswerGuarded(sql, options);
    auto cold = Fresh()->AnswerGuarded(sql, options);
    EXPECT_EQ(got.ok(), cold.ok()) << sql;
    if (!got.ok() || !cold.ok()) {
      EXPECT_EQ(got.status().code(), cold.status().code()) << sql;
      return AnswerResult{};
    }
    EXPECT_EQ(got.value().table.ToString(), cold.value().table.ToString())
        << sql;
    EXPECT_EQ(got.value().warnings.size(), cold.value().warnings.size())
        << sql;
    return std::move(got).value();
  }

  /// EXPLAIN of `sql` on system_ equals a cold EXPLAIN on a fresh system.
  std::string ExplainMatchesCold(const std::string& sql, bool multiset) {
    AnswerOptions options;
    options.multiset = multiset;
    auto got = system_->ExplainOptimized(sql, options);
    auto cold = Fresh()->ExplainOptimized(sql, options);
    EXPECT_TRUE(got.ok() && cold.ok()) << sql;
    if (!got.ok() || !cold.ok()) return "";
    EXPECT_EQ(got.value(), cold.value()) << sql;
    return got.value();
  }

  Catalog catalog_;
  std::vector<std::string> views_;
  std::unique_ptr<IntegrationSystem> system_;
};

/// I::stock holds 3 companies x 4 dates, prices 101..324. Source `hi` keeps
/// only prices above 300; `s2` keeps everything. Both are per-company
/// (dynamic) views, `hi` registered first.
class StockShapeTest : public ShapeCacheTest {
 protected:
  void SetUp() override {
    Table stock(Schema({{"company", TypeKind::kString},
                        {"date", TypeKind::kDate},
                        {"price", TypeKind::kInt}}));
    const std::vector<std::string> companies = {"coa", "cob", "coc"};
    for (size_t c = 0; c < companies.size(); ++c) {
      Table all(Schema({{"date", TypeKind::kDate}, {"price", TypeKind::kInt}}));
      Table high(all.schema());
      for (int d = 1; d <= 4; ++d) {
        const Value price = Value::Int(100 + 110 * static_cast<int>(c) + d);
        stock.AppendRowUnchecked({Value::String(companies[c]), Day(d), price});
        all.AppendRowUnchecked({Day(d), price});
        if (price.as_int() > 300) high.AppendRowUnchecked({Day(d), price});
      }
      ASSERT_TRUE(catalog_.PutTable("s2", companies[c], std::move(all)).ok());
      ASSERT_TRUE(catalog_.PutTable("hi", companies[c], std::move(high)).ok());
    }
    ASSERT_TRUE(catalog_.PutTable("I", "stock", std::move(stock)).ok());
    views_ = {
        "create view hi::C(date, price) as select D, P from I::stock T, "
        "T.company C, T.date D, T.price P where P > 300",
        "create view s2::C(date, price) as select D, P from I::stock T, "
        "T.company C, T.date D, T.price P"};
    system_ = Fresh();
  }

  static std::string Above(const std::string& literal) {
    return "select C, D, P from I::stock T, T.company C, T.date D, T.price P "
           "where P > " +
           literal;
  }

  static std::string Between(const std::string& lo, const std::string& hi) {
    return "select C, D, P from I::stock T, T.company C, T.date D, T.price P "
           "where P > " +
           lo + " and P < " + hi;
  }

  PlanCacheStats Stats() const { return system_->plan_cache_stats(); }
};

TEST_F(StockShapeTest, ViewConditionImpliedOrNotFlipsTheGuard) {
  // P > 310 implies hi's P > 300: hi answers, and the shape is cached.
  AnswerResult first = AnswerMatchesCold(Above("310"), /*multiset=*/true);
  EXPECT_FALSE(first.plan_cached);
  EXPECT_GT(first.table.num_rows(), 0u);
  EXPECT_EQ(Stats().shape_hits, 0u);
  EXPECT_NE(ExplainMatchesCold(Above("310"), true).find("source: hi::C\n"),
            std::string::npos);

  // P > 322 still implies it: the guard holds and the rewriting is reused.
  AnswerResult reused = AnswerMatchesCold(Above("322"), true);
  EXPECT_GT(reused.table.num_rows(), 0u);
  EXPECT_FALSE(reused.plan_cached);
  EXPECT_EQ(Stats().shape_hits, 1u);
  EXPECT_EQ(Stats().shape_guard_failures, 0u);

  // P > 250 does not: the guard fails, the full probe falls past hi to s2.
  AnswerResult probed = AnswerMatchesCold(Above("250"), true);
  EXPECT_FALSE(probed.plan_cached);
  EXPECT_EQ(Stats().shape_hits, 1u);
  EXPECT_EQ(Stats().shape_guard_failures, 1u);
  EXPECT_NE(ExplainMatchesCold(Above("250"), true).find("source: s2::C\n"),
            std::string::npos);

  // The shape entry now holds s2's rewriting, recorded at 250: 200 reuses
  // it; 330 flips the implication back and probes again.
  AnswerMatchesCold(Above("200"), true);
  EXPECT_EQ(Stats().shape_hits, 2u);
  AnswerMatchesCold(Above("330"), true);
  EXPECT_EQ(Stats().shape_guard_failures, 2u);
}

TEST_F(StockShapeTest, UnsatisfiableWhereImpliesEveryCondition) {
  // P > 5 and P < 3 is unsatisfiable, so it implies hi's condition too.
  AnswerResult unsat = AnswerMatchesCold(Between("5", "3"), true);
  EXPECT_EQ(unsat.table.num_rows(), 0u);
  EXPECT_NE(ExplainMatchesCold(Between("5", "3"), true).find("source: hi::C"),
            std::string::npos);
  // Another unsatisfiable binding replays the same answers.
  AnswerMatchesCold(Between("8", "2"), true);
  EXPECT_EQ(Stats().shape_hits, 1u);
  // A satisfiable one below hi's bound does not.
  AnswerResult sat = AnswerMatchesCold(Between("5", "400"), true);
  EXPECT_GT(sat.table.num_rows(), 0u);
  EXPECT_EQ(Stats().shape_guard_failures, 1u);
  EXPECT_NE(ExplainMatchesCold(Between("5", "400"), true).find("source: s2::C"),
            std::string::npos);
}

TEST_F(StockShapeTest, ShapeHitThenExactRepeatIsAnExactHit) {
  AnswerMatchesCold(Above("350"), true);
  AnswerResult shaped = AnswerMatchesCold(Above("360"), true);
  EXPECT_FALSE(shaped.plan_cached);
  EXPECT_EQ(Stats().shape_hits, 1u);
  AnswerResult repeat = AnswerMatchesCold(Above("360"), true);
  EXPECT_TRUE(repeat.plan_cached);
  EXPECT_EQ(repeat.table.ToString(), shaped.table.ToString());
  EXPECT_EQ(Stats().shape_hits, 1u);
  // The shape counters also land on the answer's own observer.
  ASSERT_NE(shaped.observer, nullptr);
  EXPECT_EQ(shaped.observer->metrics.Value(counters::kPlanCacheShapeHits), 1u);
  EXPECT_EQ(shaped.observer->metrics.Value(counters::kPlanCacheMisses), 1u);
  EXPECT_EQ(system_->metrics().Value(counters::kPlanCacheShapeHits), 1u);
}

TEST_F(StockShapeTest, ExplainOnAShapeHitIsTheColdExplain) {
  for (bool multiset : {false, true}) {
    SCOPED_TRACE(multiset);
    system_ = Fresh();
    AnswerMatchesCold(Above("350"), multiset);
    const std::string text = ExplainMatchesCold(Above("370"), multiset);
    EXPECT_EQ(Stats().shape_hits, 1u);
    EXPECT_NE(text.find("P > 370"), std::string::npos) << text;
    EXPECT_EQ(text.find("350"), std::string::npos) << text;
    // The answer then runs the plan EXPLAIN cached.
    EXPECT_TRUE(AnswerMatchesCold(Above("370"), multiset).plan_cached);
  }
}

TEST_F(StockShapeTest, PreparedBindingsShareTheShape) {
  auto prepared = system_->Prepare(Above("?"));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  AnswerOptions bag;
  bag.multiset = true;
  for (int64_t lo : {350, 310, 360, 120}) {
    auto got = system_->ExecutePrepared(*prepared.value(), {Value::Int(lo)},
                                        bag);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto cold = Fresh()->AnswerGuarded(Above(std::to_string(lo)), bag);
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(got.value().table.ToString(), cold.value().table.ToString());
  }
  EXPECT_EQ(Stats().shape_hits, 2u);
  EXPECT_EQ(Stats().shape_guard_failures, 1u);
}

TEST_F(StockShapeTest, RegistrationAndCommitsInvalidateShapeEntries) {
  AnswerMatchesCold(Above("350"), true);
  ASSERT_TRUE(system_
                  ->RegisterIndex("create index prices as btree by given "
                                  "T.price select T.company from I::stock T")
                  .ok());
  AnswerMatchesCold(Above("360"), true);
  EXPECT_EQ(Stats().shape_hits, 0u);

  views_.push_back(
      "create view s3::C(date) as select D from I::stock T, T.company C, "
      "T.date D");
  ASSERT_TRUE(system_->RegisterSource(views_.back()).ok());
  AnswerMatchesCold(Above("370"), true);
  EXPECT_EQ(Stats().shape_hits, 0u);

  // A commit anywhere moves the snapshot version the shape tier keys on.
  ASSERT_TRUE(
      catalog_.PutTable("other", "t", Table(Schema({{"x", TypeKind::kInt}})))
          .ok());
  AnswerMatchesCold(Above("380"), true);
  EXPECT_EQ(Stats().shape_hits, 0u);
  // Same version again: the entry the last probe cached serves.
  AnswerMatchesCold(Above("390"), true);
  EXPECT_EQ(Stats().shape_hits, 1u);
}

TEST_F(StockShapeTest, DirectPlansStayExactKeyed) {
  // With no source registered, I answers directly: nothing is
  // shape-cached, so a second binding finds no shape entry.
  const auto direct = [](const std::string& lit) {
    return "select T.date from I::stock T where T.price > " + lit +
           " order by T.date limit 2";
  };
  system_ = std::make_unique<IntegrationSystem>(&catalog_, "I");
  views_.clear();
  AnswerMatchesCold(direct("150"), true);
  AnswerMatchesCold(direct("160"), true);
  EXPECT_EQ(Stats().shape_hits, 0u);
  EXPECT_EQ(Stats().shape_guard_failures, 0u);
}

/// I::m(a, b) with a source projecting b away. `B` is recoverable from the
/// source only when the WHERE makes it equal to `A`.
class EqualVariablesShapeTest : public ShapeCacheTest {
 protected:
  void SetUp() override {
    Table m(Schema({{"a", TypeKind::kInt}, {"b", TypeKind::kInt}}));
    Table v(Schema({{"val", TypeKind::kInt}}));
    for (int i = 0; i < 10; ++i) {
      m.AppendRowUnchecked({Value::Int(i % 7), Value::Int(i % 5)});
      v.AppendRowUnchecked({Value::Int(i % 7)});
    }
    ASSERT_TRUE(catalog_.PutTable("I", "m", std::move(m)).ok());
    ASSERT_TRUE(catalog_.PutTable("v", "m", std::move(v)).ok());
    views_ = {"create view v::m(val) as select A from I::m T, T.a A"};
    system_ = Fresh();
  }

  static std::string Query(int a, int b) {
    return "select B from I::m T, T.a A, T.b B where A = " +
           std::to_string(a) + " and B = " + std::to_string(b);
  }
};

TEST_F(EqualVariablesShapeTest, ASharedConstantMakesTwoVariablesEqual) {
  // A = 3 and B = 3: B equals A, so the source supplies it.
  AnswerResult equal = AnswerMatchesCold(Query(3, 3), true);
  EXPECT_GT(equal.table.num_rows(), 0u);
  EXPECT_NE(ExplainMatchesCold(Query(3, 3), true).find("source: v::m\n"),
            std::string::npos);
  // A = 4 and B = 4: the same equality, the same rewriting.
  AnswerMatchesCold(Query(4, 4), true);
  EXPECT_EQ(system_->plan_cache_stats().shape_hits, 1u);
  // A = 3 and B = 4: B is no longer recoverable; I answers directly.
  AnswerMatchesCold(Query(3, 4), true);
  EXPECT_EQ(system_->plan_cache_stats().shape_guard_failures, 1u);
  EXPECT_NE(ExplainMatchesCold(Query(3, 4), true).find("direct plan on I\n"),
            std::string::npos);
}

/// I::w(id, txt) with two copies: `cc` keeps rows containing 'a', `cw`
/// keeps every row.
class WordsShapeTest : public ShapeCacheTest {
 protected:
  void SetUp() override {
    Table w(Schema({{"id", TypeKind::kInt}, {"txt", TypeKind::kString}}));
    Table with_a(w.schema());
    const std::vector<std::string> words = {"alpha", "beta", "A'B",
                                            "gamma", "cab", "rho"};
    for (size_t i = 0; i < words.size(); ++i) {
      const Row row = {Value::Int(static_cast<int64_t>(i)),
                       Value::String(words[i])};
      w.AppendRowUnchecked(row);
      if (words[i].find('a') != std::string::npos) with_a.AppendRowUnchecked(row);
    }
    ASSERT_TRUE(catalog_.PutTable("cw", "w", w).ok());
    ASSERT_TRUE(catalog_.PutTable("cc", "w", std::move(with_a)).ok());
    ASSERT_TRUE(catalog_.PutTable("I", "w", std::move(w)).ok());
    views_ = {
        "create view cc::w(id, txt) as select N, X from I::w T, T.id N, "
        "T.txt X where contains(X, 'a')",
        "create view cw::w(id, txt) as select N, X from I::w T, T.id N, "
        "T.txt X"};
    system_ = Fresh();
  }
};

TEST_F(WordsShapeTest, QuotedStringLiteralsSubstituteVerbatim) {
  const auto query = [](const std::string& lit) {
    return "select N, X from I::w T, T.id N, T.txt X where X = " + lit;
  };
  AnswerMatchesCold(query("'rho'"), true);
  AnswerResult quoted = AnswerMatchesCold(query("'A''B'"), true);
  EXPECT_EQ(system_->plan_cache_stats().shape_hits, 1u);
  ASSERT_EQ(quoted.table.num_rows(), 1u);
  EXPECT_EQ(quoted.table.row(0)[1].as_string(), "A'B");
  const std::string text = ExplainMatchesCold(query("'A''B'"), true);
  EXPECT_NE(text.find("X = 'A''B'"), std::string::npos) << text;
}

TEST_F(WordsShapeTest, ContainsMatchesOnlyItsOwnRendering) {
  const auto query = [](const std::string& word, int above) {
    return "select N from I::w T, T.id N, T.txt X where contains(X, '" +
           word + "') and N > " + std::to_string(above);
  };
  // contains(X, 'a') is the view's own conjunct: cc answers.
  AnswerMatchesCold(query("a", 0), true);
  EXPECT_NE(ExplainMatchesCold(query("a", 0), true).find("source: cc::w\n"),
            std::string::npos);
  AnswerMatchesCold(query("a", 2), true);
  EXPECT_EQ(system_->plan_cache_stats().shape_hits, 1u);
  // contains(X, 'b') is a different conjunct, not an implication of it.
  AnswerMatchesCold(query("b", 0), true);
  EXPECT_EQ(system_->plan_cache_stats().shape_guard_failures, 1u);
  EXPECT_NE(ExplainMatchesCold(query("b", 0), true).find("source: cw::w\n"),
            std::string::npos);
}

// Four threads answer one shape with distinct literals, some on each side
// of hi's bound (so some guards fail), while a writer commits to s2. Every
// answer must equal a serial cold answer at the snapshot it pinned.
TEST_F(StockShapeTest, ConcurrentBindingsMatchSerialAnswersAtTheirVersion) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  struct Seen {
    std::string sql;
    std::shared_ptr<const CatalogSnapshot> snapshot;
    std::string table;
  };
  std::mutex mu;
  std::vector<Seen> seen;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // A bounded number of commits, spaced so that several answers share
  // each version (a shape hit needs an entry from the same version).
  std::thread writer([&] {
    for (int i = 0; i < 30 && !stop.load(); ++i) {
      Table t(Schema({{"date", TypeKind::kDate}, {"price", TypeKind::kInt}}));
      for (int d = 1; d <= 4; ++d) {
        t.AppendRowUnchecked({Day(d), Value::Int(320 + (i + d) % 40)});
      }
      if (!catalog_.PutTable("s2", "coa", std::move(t)).ok()) ++failures;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kThreads; ++r) {
    readers.emplace_back([&, r] {
      AnswerOptions bag;
      bag.multiset = true;
      for (int i = 0; i < kPerThread; ++i) {
        // Distinct literals, alternately below and above hi's bound.
        const int n = r * kPerThread + i;
        const std::string sql =
            Above(std::to_string((i % 2 == 0 ? 100 : 400) + n));
        auto got = system_->AnswerGuarded(sql, bag);
        if (!got.ok()) {
          ++failures;
          continue;
        }
        std::lock_guard<std::mutex> lock(mu);
        seen.push_back(Seen{sql, got.value().snapshot,
                            got.value().table.ToString()});
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop = true;
  writer.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_EQ(seen.size(), static_cast<size_t>(kThreads * kPerThread));

  std::unique_ptr<IntegrationSystem> serial = Fresh();
  AnswerOptions bag;
  bag.multiset = true;
  for (const Seen& s : seen) {
    serial->ClearPlanCache();
    QueryContext qc(bag.guards);
    qc.PinSnapshot(s.snapshot);
    auto cold = serial->AnswerGuarded(s.sql, bag, &qc);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(cold.value().snapshot_version, s.snapshot->version());
    EXPECT_EQ(cold.value().table.ToString(), s.table) << s.sql;
  }
  // Both guard outcomes happened under concurrency.
  EXPECT_GT(Stats().shape_hits, 0u);
  EXPECT_GT(Stats().shape_guard_failures, 0u);
}

}  // namespace
}  // namespace dynview
