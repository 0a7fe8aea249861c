// Suite for the compiled query path (ctest -L compiled):
//
//  - engine goldens: the Fig. 6 workload, higher-order fan-out queries,
//    error surfaces, competing grouping errors and seeded random catalogs
//    must render BYTE-identically (Table::ToString or the full status) to
//    tests/golden/engine/*.txt at 1 and 8 threads. The goldens were
//    recorded from the tree-walk evaluator, so they pin the compiled
//    engine to its semantics, error order included;
//  - the plan cache must serve byte-identical answers on hits, die on
//    schema changes, fence changes and source/index registration, survive
//    commits that change rows only, count
//    hits/misses/evictions/invalidations, and degrade to a fresh compile
//    (never a wrong answer) when a lookup is poisoned via the
//    `plan_cache.lookup` failpoint;
//  - prepared queries must bind positionally, share cached plans across
//    repeats and with equivalent ad-hoc SQL, and reject arity mismatches;
//  - the Ex. 5.2 / Ex. 5.3 golden rewritings must answer identically
//    through the cache (the goldens themselves live in
//    golden_translation_test; here we pin the cached execution to them);
//  - grounding fan-out must share one compiled program per plan: the
//    `compile.exprs_flattened` counter is invariant in both the grounding
//    width and the thread count.
//
// Regenerate the engine goldens after an intentional change with:
//   DYNVIEW_REGOLD=1 ctest -R 'CompiledEngineTest|CompiledRandomTest'
// then review the diff like any other code change.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "engine/query_engine.h"
#include "evolve/evolution.h"
#include "integration/integration.h"
#include "plan_cache/fingerprint.h"
#include "sql/parser.h"
#include "schemasql/view_maintainer.h"
#include "schemasql/view_materializer.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

ExecConfig Config(size_t threads) {
  ExecConfig exec;
  exec.num_threads = threads;
  exec.morsel_rows = 4;  // Engage the parallel operator paths on small data.
  return exec;
}

// ---- engine goldens ---------------------------------------------------------

/// One query's outcome as the goldens record it: the SQL, then the result
/// table or the status.
std::string Render(const std::string& sql, const Result<Table>& r) {
  std::string out = "-- " + sql + "\n";
  out += r.ok() ? r.value().ToString() : "status: " + r.status().ToString();
  if (out.back() != '\n') out += '\n';
  return out;
}

/// Answers `queries` over `catalog` at 1 and 8 threads and compares the
/// renderings byte for byte with tests/golden/engine/<name>.txt.
void ExpectGolden(const Catalog& catalog, const std::string& default_db,
                  const std::string& name,
                  const std::vector<std::string>& queries) {
  const std::string path =
      std::string(DYNVIEW_TESTDATA_DIR) + "/" + name + ".txt";
  for (size_t threads : {1u, 8u}) {
    QueryEngine engine(&catalog, default_db, Config(threads));
    std::string got;
    for (const std::string& q : queries) got += Render(q, engine.ExecuteSql(q));
    if (std::getenv("DYNVIEW_REGOLD") != nullptr) {
      std::ofstream out(path, std::ios::trunc);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << got;
      GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden file " << path;
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(want.str(), got) << name << " diverges at threads=" << threads;
  }
}

class CompiledEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StockGenConfig cfg;
    cfg.num_companies = 5;
    cfg.num_dates = 8;
    Table s1 = GenerateStockS1(cfg);
    ASSERT_TRUE(InstallStockS1(&catalog_, "s1", s1).ok());
    ASSERT_TRUE(InstallStockS2(&catalog_, "s2", s1).ok());
    ASSERT_TRUE(InstallStockS3(&catalog_, "s3", s1).ok());
    ASSERT_TRUE(InstallDb0(&catalog_, "db0", cfg).ok());
  }

  Catalog catalog_;
};

TEST_F(CompiledEngineTest, Fig6WorkloadByteIdentity) {
  ExpectGolden(
      catalog_, "s1", "fig6_workload",
      {
          // The Fig. 6 integration query (pushdown filter + projection).
          "select C, P from s1::stock T, T.company C, T.price P where P > 300",
          // Self-join on company with a conjunctive filter (join keys).
          "select C1, P1 from s1::stock T1, s1::stock T2, T1.company C1, "
          "T2.company C2, T1.price P1, T2.price P2 "
          "where C1 = C2 and P1 > P2 and P2 > 100",
          // Logic short-circuit shapes: and/or/not over tri-state inputs.
          "select C from s1::stock T, T.company C, T.price P, T.exch E "
          "where (P > 200 and E = 'nyse') or not (P between 50 and 400)",
          // String operators.
          "select C from s1::stock T, T.company C where C like 'co%' "
          "and contains(C, 'o')",
          // Arithmetic in projection and ORDER BY keys.
          "select C, P + 10 from s1::stock T, T.company C, T.price P "
          "order by P desc, C",
          // Grouping: group keys, aggregate slots, HAVING.
          "select C, max(P), count(*) from s1::stock T, T.company C, "
          "T.price P where P > 50 group by C having min(P) > 0",
          "select distinct E from s1::stock T, T.exch E",
      });
}

TEST_F(CompiledEngineTest, HigherOrderFanOutByteIdentity) {
  // Relation / attribute / database variables: programs are reused across
  // groundings (schemas agree per the s2/s3 layouts).
  ExpectGolden(
      catalog_, "s2", "higher_order_fanout",
      {
          "select R, D, P from s2 -> R, R T, T.date D, T.price P "
          "where P > 100",
          "select distinct R from s2 -> R, R T, T.price P where P > 100",
          "select A, D, P from s3::stock -> A, s3::stock T, T.date D, T.A P "
          "where A <> 'date'",
          "select DB from -> DB, DB::stock T",
      });
}

TEST_F(CompiledEngineTest, ErrorSurfacesMatchInterpreter) {
  // Non-boolean predicates and unbound parameters raise the tree walk's
  // exact statuses (recorded in the golden) from deferred-error ops.
  ExpectGolden(catalog_, "s1", "error_surfaces",
               {
                   "select C from s1::stock T, T.company C where C",
                   "select C from s1::stock T, T.company C "
                   "where T.price > ?",
               });
}

TEST_F(CompiledEngineTest, GroupingErrorsByteIdentity) {
  // HAVING runs first and computes all of its aggregates before evaluating
  // (so an aggregate error beats a short-circuit); select items then ORDER
  // BY keys follow, each computing its own aggregates just before it runs.
  const std::string from = " from s1::stock T, T.company C, T.price P";
  ExpectGolden(
      catalog_, "s1", "grouping_errors",
      {
          "select C, sum(C)" + from + " group by C having max(P) > 'x'",
          "select C, sum(C)" + from +
              " group by C having count(*) > 0 or sum(C) > 1",
          "select C, sum(C)" + from +
              " group by C having count(*) > 0 or C > 1",
          "select C, max(C) + 1, sum(C)" + from + " group by C",
          "select C, sum(C), max(C) + 1" + from + " group by C",
          "select C, sum(C)" + from + " group by C having count(*) > 100",
          "select C, max(P)" + from + " group by C order by sum(C)",
          "select C, max(P)" + from +
              " group by C having min(P) > 0 order by max(P) desc, C",
          "select count(*), sum(C)" + from + " where C = 'nosuch'",
          "select C, sum(P)" + from +
              " where C = 'nosuch' group by C having max(C) > 1",
          "select C" + from + " group by C having sum(P) > ?",
          "select count(distinct C), avg(P), min(D), max(D) from s1::stock T, "
          "T.company C, T.date D, T.price P",
          "select C, sum(P) * 2 - count(*)" + from +
              " group by C having not (max(P) < 100 and sum(C) > 0)",
          "select C" + from + " where max(P) > 1",
          "select C, max(sum(P))" + from + " group by C",
          "select C" + from + " group by C having max(P)",
          "select max(P) from s2 -> R, R T, T.price P",
          "select R, sum(D) from s2 -> R, R T, T.date D group by R "
          "having count(*) > 2",
          "select R, max(P) from s2 -> R, R T, T.price P group by R "
          "having max(P) > 'x' order by R",
      });
}

// Seeded random catalogs and queries (the differential_test generator's
// shape family, checked byte for byte against per-seed goldens instead of
// as bags).
class CompiledRandomTest : public ::testing::TestWithParam<uint64_t> {};

uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int Pick(uint64_t* state, int n) {
  return static_cast<int>(NextRandom(state) % static_cast<uint64_t>(n));
}

std::string RandomQuery(uint64_t seed, int num_companies) {
  uint64_t state = seed;
  int num_stock = 1 + Pick(&state, 2);
  std::string from;
  std::string where;
  auto add_conj = [&](const std::string& c) {
    if (!where.empty()) where += " and ";
    where += c;
  };
  for (int i = 0; i < num_stock; ++i) {
    std::string n = std::to_string(i);
    if (i > 0) from += ", ";
    from += "db0::stock T" + n + ", T" + n + ".company C" + n + ", T" + n +
            ".date D" + n + ", T" + n + ".price P" + n;
    switch (Pick(&state, 4)) {
      case 0:
        add_conj("P" + n + " > " + std::to_string(50 + Pick(&state, 300)));
        break;
      case 1:
        add_conj("P" + n + " between " +
                 std::to_string(50 + Pick(&state, 150)) + " and " +
                 std::to_string(250 + Pick(&state, 150)));
        break;
      case 2:
        add_conj("C" + n + " = '" + CompanyName(Pick(&state, num_companies)) +
                 "'");
        break;
      default:
        break;
    }
    if (i > 0) {
      add_conj(Pick(&state, 2) == 0 ? "C" + n + " = C" + std::to_string(i - 1)
                                    : "D" + n + " = D" + std::to_string(i - 1));
    }
  }
  std::string select = "C0, D0, P0";
  if (Pick(&state, 3) == 0) {
    const char* funcs[] = {"max", "min", "count", "sum"};
    return "select C0, " + std::string(funcs[Pick(&state, 4)]) +
           "(P0) from " + from + (where.empty() ? "" : " where " + where) +
           " group by C0";
  }
  return "select " + select + " from " + from +
         (where.empty() ? "" : " where " + where) + " order by P0, C0, D0";
}

TEST_P(CompiledRandomTest, SeededCatalogByteIdentity) {
  uint64_t seed = GetParam();
  // The catalog itself is seeded: shape varies per instance.
  StockGenConfig cfg;
  cfg.num_companies = 4 + static_cast<int>(seed % 5);
  cfg.num_dates = 6 + static_cast<int>(seed % 7);
  cfg.seed = seed;
  Catalog catalog;
  ASSERT_TRUE(InstallDb0(&catalog, "db0", cfg).ok());
  std::vector<std::string> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(RandomQuery(seed * 1000 + static_cast<uint64_t>(i),
                                  cfg.num_companies));
  }
  ExpectGolden(catalog, "db0", "seeded_random_" + std::to_string(seed),
               queries);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledRandomTest,
                         ::testing::Range<uint64_t>(1, 11));

// ---- plan cache behavior through IntegrationSystem -------------------------

constexpr char kFig6SourceSql[] =
    "create view s2::C(date, price) as "
    "select D, P from I::stock T, T.company C, T.date D, T.price P";

constexpr char kFig6Query[] =
    "select C, P from I::stock T, T.company C, T.price P where P > 300";

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StockGenConfig cfg;
    cfg.num_companies = 5;
    cfg.num_dates = 10;
    Table s1 = GenerateStockS1(cfg);
    // I is virtual: data lives only under the s2 source.
    ASSERT_TRUE(catalog_
                    .PutTable("I", "stock",
                              Table(Schema({{"company", TypeKind::kString},
                                            {"date", TypeKind::kDate},
                                            {"price", TypeKind::kInt}})))
                    .ok());
    ASSERT_TRUE(InstallStockS2(&catalog_, "s2", s1).ok());
    system_ = std::make_unique<IntegrationSystem>(&catalog_, "I");
    ASSERT_TRUE(system_->RegisterSource(kFig6SourceSql).ok());
  }

  void TearDown() override { FailPoints::DisarmAll(); }

  AnswerOptions Multiset() {
    AnswerOptions opts;
    opts.multiset = true;
    return opts;
  }

  Catalog catalog_;
  std::unique_ptr<IntegrationSystem> system_;
};

TEST_F(PlanCacheTest, SecondAnswerHitsAndIsByteIdentical) {
  auto cold = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold.value().plan_cached);
  ASSERT_FALSE(cold.value().plan_fingerprint.empty());
  ASSERT_NE(cold.value().observer, nullptr);
  EXPECT_EQ(cold.value().observer->metrics.Value(counters::kPlanCacheMisses),
            1u);
  EXPECT_EQ(cold.value().observer->metrics.Value(counters::kPlanCacheHits),
            0u);
  // The cold execution compiled at least the pushdown predicate.
  EXPECT_GT(cold.value().observer->metrics.Value(counters::kExprsFlattened),
            0u);

  auto warm = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm.value().plan_cached);
  EXPECT_EQ(warm.value().plan_fingerprint, cold.value().plan_fingerprint);
  EXPECT_EQ(warm.value().table.ToString(), cold.value().table.ToString());
  ASSERT_NE(warm.value().observer, nullptr);
  EXPECT_EQ(warm.value().observer->metrics.Value(counters::kPlanCacheHits),
            1u);
  // The hit reuses the plan's program memo: nothing new is flattened.
  EXPECT_EQ(warm.value().observer->metrics.Value(counters::kExprsFlattened),
            0u);

  PlanCacheStats stats = system_->plan_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(PlanCacheTest, EquivalentSpellingsShareOnePlan) {
  // Case and whitespace differences normalize to the same fingerprint;
  // string literals keep their case.
  auto a = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(a.ok());
  auto b = system_->AnswerGuarded(
      "SELECT  C,  P   FROM I::stock T, T.company C, T.price P "
      "WHERE P > 300",
      Multiset());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b.value().plan_cached);
  EXPECT_EQ(b.value().plan_fingerprint, a.value().plan_fingerprint);
  EXPECT_EQ(b.value().table.ToString(), a.value().table.ToString());
  // A different literal is a different exact fingerprint (Alg. 5.1 may
  // decide differently on it) — never a false hit.
  auto c = system_->AnswerGuarded(
      "select C, P from I::stock T, T.company C, T.price P where P > 301",
      Multiset());
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c.value().plan_cached);
  EXPECT_NE(c.value().plan_fingerprint, a.value().plan_fingerprint);
}

TEST_F(PlanCacheTest, CatalogCommitInvalidatesCachedPlan) {
  auto cold = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(cold.ok());
  auto warm = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().plan_cached);

  // Creating a database moves the schema epoch; entries pinned to the old
  // epoch die lazily at next lookup.
  ASSERT_TRUE(catalog_
                  .PutTable("scratch", "t",
                            Table(Schema({{"x", TypeKind::kInt}})))
                  .ok());
  auto after = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after.value().plan_cached);
  ASSERT_NE(after.value().observer, nullptr);
  EXPECT_EQ(after.value().observer->metrics.Value(
                counters::kPlanCacheInvalidations),
            1u);
  // Data did not change, so the recompiled answer is still byte-identical.
  EXPECT_EQ(after.value().table.ToString(), cold.value().table.ToString());
  EXPECT_GE(system_->plan_cache_stats().invalidations, 1u);

  // And the fresh entry serves hits again.
  auto rewarm = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(rewarm.ok());
  EXPECT_TRUE(rewarm.value().plan_cached);
}

TEST_F(PlanCacheTest, SourceRegistrationClearsCache) {
  auto cold = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(cold.ok());
  auto warm = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().plan_cached);
  // A new source changes the universe Alg. 5.1 probes: cached rewritings
  // chose among the old sources and must not survive.
  ASSERT_TRUE(system_
                  ->RegisterSource(
                      "create view s2::B(date, price) as "
                      "select D, P from I::stock T, T.company C, T.date D, "
                      "T.price P")
                  .ok());
  auto after = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().plan_cached);
  EXPECT_EQ(after.value().table.ToString(), cold.value().table.ToString());
}

TEST_F(PlanCacheTest, PoisonedLookupDegradesToFreshCompile) {
  auto cold = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(cold.ok());
  auto warm = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().plan_cached);

  // Chaos: the next lookup finds a poisoned/evicted entry. The query must
  // degrade to a fresh compile with a warning — never a wrong answer.
  FailSpec spec;
  spec.mode = FailMode::kErrorOnce;
  FailPoints::Arm("plan_cache.lookup", spec);
  auto poisoned = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(poisoned.ok()) << poisoned.status().ToString();
  EXPECT_FALSE(poisoned.value().plan_cached);
  EXPECT_EQ(poisoned.value().table.ToString(), cold.value().table.ToString());
  bool warned = false;
  for (const SourceWarning& w : poisoned.value().warnings) {
    if (w.source == "plan_cache") warned = true;
  }
  EXPECT_TRUE(warned) << "poisoned lookup must surface a plan_cache warning";

  // The fail point passed; the re-inserted entry serves hits again.
  auto recovered = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().plan_cached);
  EXPECT_EQ(recovered.value().table.ToString(), cold.value().table.ToString());
}

TEST_F(PlanCacheTest, BoundedCapacityEvicts) {
  IntegrationSystem tiny(&catalog_, "I");
  ASSERT_TRUE(tiny.RegisterSource(kFig6SourceSql).ok());
  // More distinct literals than the default cache holds in total, so at
  // least one shard overflows.
  for (int p = 0; p < 300; ++p) {
    auto r = tiny.AnswerGuarded(
        "select C, P from I::stock T, T.company C, T.price P where P > " +
            std::to_string(100 + p),
        Multiset());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  PlanCacheStats stats = tiny.plan_cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  // Evicted plans recompile correctly.
  auto again = tiny.AnswerGuarded(
      "select C, P from I::stock T, T.company C, T.price P where P > 100",
      Multiset());
  ASSERT_TRUE(again.ok());
}

// ---- prepared queries ------------------------------------------------------

TEST_F(PlanCacheTest, PreparedQueryBindsAndHitsCache) {
  auto prepared = system_->Prepare(
      "select C, P from I::stock T, T.company C, T.price P where P > ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared.value()->num_params(), 1);
  EXPECT_FALSE(prepared.value()->fingerprint().empty());

  auto cold = system_->ExecutePrepared(*prepared.value(), {Value::Int(300)},
                                       Multiset());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold.value().plan_cached);
  auto warm = system_->ExecutePrepared(*prepared.value(), {Value::Int(300)},
                                       Multiset());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().plan_cached);
  EXPECT_EQ(warm.value().table.ToString(), cold.value().table.ToString());

  // The substituted statement fingerprints exactly like the equivalent
  // ad-hoc SQL, so the two entry points share one plan.
  auto adhoc = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(adhoc.ok());
  EXPECT_TRUE(adhoc.value().plan_cached);
  EXPECT_EQ(adhoc.value().plan_fingerprint, cold.value().plan_fingerprint);
  EXPECT_EQ(adhoc.value().table.ToString(), cold.value().table.ToString());

  // A different binding is a different exact fingerprint: cold, then warm.
  auto other = system_->ExecutePrepared(*prepared.value(), {Value::Int(100)},
                                        Multiset());
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other.value().plan_cached);
  EXPECT_NE(other.value().plan_fingerprint, cold.value().plan_fingerprint);
  auto other_warm = system_->ExecutePrepared(*prepared.value(),
                                             {Value::Int(100)}, Multiset());
  ASSERT_TRUE(other_warm.ok());
  EXPECT_TRUE(other_warm.value().plan_cached);
  EXPECT_EQ(other_warm.value().table.ToString(),
            other.value().table.ToString());
}

TEST_F(PlanCacheTest, QuotedLiteralsNeverShareAPlan) {
  // 'A''B' and 'A''b' are distinct values (A'B vs A'b). An unescaped
  // rendering would let the normalizer lowercase text "after" the embedded
  // quote, collide the fingerprints, and serve query b query a's plan.
  auto a = system_->AnswerGuarded(
      "select C, P from I::stock T, T.company C, T.price P "
      "where C = 'A''B' and P > 0",
      Multiset());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = system_->AnswerGuarded(
      "select C, P from I::stock T, T.company C, T.price P "
      "where C = 'A''b' and P > 0",
      Multiset());
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_FALSE(b.value().plan_cached);
  EXPECT_NE(b.value().plan_fingerprint, a.value().plan_fingerprint);
}

TEST_F(PlanCacheTest, PreparedStringParameterIsNeverInjected) {
  auto prepared = system_->Prepare(
      "select C, P from I::stock T, T.company C, T.price P where C = ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  // A benign binding matches rows...
  auto hit = system_->ExecutePrepared(*prepared.value(),
                                      {Value::String("coA")}, Multiset());
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_GT(hit.value().table.num_rows(), 0u);
  // ...and a binding shaped like SQL is compared as the literal string it
  // is, never re-parsed into an extra predicate (which would match every
  // row). This exercises the cache-miss path, where the substituted
  // statement round-trips through rendered SQL.
  auto inj = system_->ExecutePrepared(
      *prepared.value(), {Value::String("coA' or 'a' <> 'b")}, Multiset());
  ASSERT_TRUE(inj.ok()) << inj.status().ToString();
  EXPECT_EQ(inj.value().table.num_rows(), 0u);
}

TEST_F(PlanCacheTest, PreparedArityMismatchRejected) {
  auto prepared = system_->Prepare(
      "select C from I::stock T, T.company C, T.price P where P > ?");
  ASSERT_TRUE(prepared.ok());
  auto none = system_->ExecutePrepared(*prepared.value(), {}, Multiset());
  EXPECT_EQ(none.status().code(), StatusCode::kInvalidArgument);
  auto extra = system_->ExecutePrepared(
      *prepared.value(), {Value::Int(1), Value::Int(2)}, Multiset());
  EXPECT_EQ(extra.status().code(), StatusCode::kInvalidArgument);
}

// ---- Ex. 5.2 / Ex. 5.3 golden workloads through the cache ------------------

class GoldenCachedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StockGenConfig cfg;
    cfg.num_companies = 6;
    cfg.num_dates = 10;
    ASSERT_TRUE(InstallDb0(&catalog_, "db0", cfg).ok());
    system_ = std::make_unique<IntegrationSystem>(&catalog_, "db0");
  }

  Catalog catalog_;
  std::unique_ptr<IntegrationSystem> system_;
};

TEST_F(GoldenCachedTest, Ex52MaxThroughPivotViewCachedIsIdentical) {
  ASSERT_TRUE(system_
                  ->RegisterAndMaterializeSource(
                      "create view db2::nyse(date, C) as "
                      "select D, P from db0::stock T, T.exch E, T.company C, "
                      "T.date D, T.price P where E = 'nyse'")
                  .ok());
  const std::string q =
      "select D, max(P) from db0::stock T, T.date D, T.price P, T.exch E "
      "where E = 'nyse' group by D having min(P) > 60";
  auto cold = system_->AnswerGuarded(q, AnswerOptions{});
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold.value().plan_cached);
  auto warm = system_->AnswerGuarded(q, AnswerOptions{});
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().plan_cached);
  EXPECT_EQ(warm.value().table.ToString(), cold.value().table.ToString());
}

TEST_F(GoldenCachedTest, Ex53ReaggregationCachedIsIdentical) {
  ASSERT_TRUE(system_
                  ->RegisterAndMaterializeSource(
                      "create view E::daily(date, C) as "
                      "select D, avg(P) from db0::stock T, T.exch E, "
                      "T.date D, T.price P, T.company C group by E, D, C")
                  .ok());
  const std::string q =
      "select E2, avg(P) from db0::stock T, T.exch E2, T.price P group by E2";
  auto cold = system_->AnswerGuarded(q, AnswerOptions{});
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = system_->AnswerGuarded(q, AnswerOptions{});
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().plan_cached);
  EXPECT_EQ(warm.value().table.ToString(), cold.value().table.ToString());
}

// ---- one compiled program per plan across the grounding fan-out ------------

TEST_F(CompiledEngineTest, FanOutSharesOneProgramAcrossGroundings) {
  // s2 holds one relation per company; the predicate is compiled once per
  // distinct (expression, slot signature), NOT once per grounding, and the
  // count is thread-count invariant.
  const std::string q =
      "select R, P from s2 -> R, R T, T.price P where P > 100";
  uint64_t flattened_serial = 0;
  for (size_t threads : {1u, 8u}) {
    QueryEngine engine(&catalog_, "s2", Config(threads));
    QueryObserver obs;
    QueryContext qc;
    qc.set_observer(&obs);
    auto r = engine.ExecuteSql(q, &qc);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    uint64_t flattened = obs.metrics.Value(counters::kExprsFlattened);
    EXPECT_GT(flattened, 0u);
    EXPECT_LT(flattened, 5u)
        << "per-grounding recompilation detected at threads=" << threads;
    if (threads == 1) {
      flattened_serial = flattened;
    } else {
      EXPECT_EQ(flattened, flattened_serial)
          << "compile.exprs_flattened must be thread-count invariant";
    }
    // Re-running on the same engine reuses the engine's program memo.
    QueryObserver obs2;
    QueryContext qc2;
    qc2.set_observer(&obs2);
    ASSERT_TRUE(engine.ExecuteSql(q, &qc2).ok());
    EXPECT_EQ(obs2.metrics.Value(counters::kExprsFlattened), 0u);
  }
}

// ---- fingerprint unit behavior ---------------------------------------------

TEST(FingerprintTest, NormalizationAndModes) {
  auto a = FingerprintSql(
      "select C from s1::stock T, T.company C where C = 'NYSE'",
      FingerprintMode::kExact);
  auto b = FingerprintSql(
      "SELECT   C FROM s1::stock T, T.company C WHERE C = 'NYSE'",
      FingerprintMode::kExact);
  auto c = FingerprintSql(
      "select C from s1::stock T, T.company C where C = 'nyse'",
      FingerprintMode::kExact);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  // Keyword case and whitespace are erased; string literal case is data.
  EXPECT_EQ(a.value().hash, b.value().hash);
  EXPECT_EQ(a.value().normalized, b.value().normalized);
  EXPECT_NE(a.value().hash, c.value().hash);

  // Parameterized mode strips literals: different constants, same shape.
  auto p1 = FingerprintSql(
      "select C from s1::stock T, T.company C, T.price P where P > 100",
      FingerprintMode::kParameterized);
  auto p2 = FingerprintSql(
      "select C from s1::stock T, T.company C, T.price P where P > 999",
      FingerprintMode::kParameterized);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(p1.value().hash, p2.value().hash);
  ASSERT_EQ(p1.value().literals.size(), 1u);
  EXPECT_EQ(p1.value().literals[0].ToString(), "100");
  EXPECT_EQ(p2.value().literals[0].ToString(), "999");
  EXPECT_EQ(p1.value().Hex().size(), 16u);
}

TEST(FingerprintTest, EmbeddedQuotesStayDistinctAndRoundTrip) {
  // 'A''B' parses to the value A'B; the AST rendering must escape it back
  // so the normalizer's quote tracking stays in sync with the lexer's.
  auto a = FingerprintSql(
      "select C from s1::stock T, T.company C where C = 'A''B'",
      FingerprintMode::kExact);
  auto b = FingerprintSql(
      "select C from s1::stock T, T.company C where C = 'A''b'",
      FingerprintMode::kExact);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.value().normalized, b.value().normalized);
  EXPECT_NE(a.value().hash, b.value().hash);

  // The rendered AST re-parses to the identical fingerprint: rendering is a
  // lossless round-trip even with embedded quotes.
  auto stmt = Parser::ParseSelect(
      "select C from s1::stock T, T.company C where C = 'A''B'");
  ASSERT_TRUE(stmt.ok());
  auto again =
      FingerprintSql(stmt.value()->ToString(), FingerprintMode::kExact);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().normalized, a.value().normalized);
}

// ---- plan cache invalidation under schema evolution ------------------------

TEST_F(PlanCacheTest, EvolutionRenameStaleMissesEveryCachedPlan) {
  // Evolution DDL is a catalog commit like any other: EVERY cached plan
  // touching the evolved source must stale-miss afterwards — answering from
  // a pre-DDL plan could bind dropped columns or read retired partitions.
  SchemaEvolver evolver(&catalog_, system_.get());
  ASSERT_TRUE(
      evolver.Apply(DdlOp::AddAttribute("I", "stock", "extra", Value::Int(0)))
          .ok());
  const char* second_query =
      "select C, D from I::stock T, T.company C, T.date D";
  auto warm1 = system_->AnswerGuarded(kFig6Query, Multiset());
  auto warm2 = system_->AnswerGuarded(second_query, Multiset());
  ASSERT_TRUE(warm1.ok() && warm2.ok());
  ASSERT_TRUE(system_->AnswerGuarded(kFig6Query, Multiset())->plan_cached);
  ASSERT_TRUE(system_->AnswerGuarded(second_query, Multiset())->plan_cached);

  // Rename an attribute the queries never read: answers stay identical, but
  // the plans must be recompiled against the evolved schema anyway.
  uint64_t invalidations_before = system_->plan_cache_stats().invalidations;
  ASSERT_TRUE(
      evolver.Apply(DdlOp::RenameAttribute("I", "stock", "extra", "extra2"))
          .ok());
  auto after1 = system_->AnswerGuarded(kFig6Query, Multiset());
  auto after2 = system_->AnswerGuarded(second_query, Multiset());
  ASSERT_TRUE(after1.ok() && after2.ok());
  EXPECT_FALSE(after1.value().plan_cached) << "stale plan served after DDL";
  EXPECT_FALSE(after2.value().plan_cached) << "stale plan served after DDL";
  EXPECT_GT(system_->plan_cache_stats().invalidations, invalidations_before);
  EXPECT_EQ(after1.value().table.ToString(), warm1.value().table.ToString());
  EXPECT_EQ(after2.value().table.ToString(), warm2.value().table.ToString());

  // The recompiled plans re-cache at the new version.
  EXPECT_TRUE(system_->AnswerGuarded(kFig6Query, Multiset())->plan_cached);
  EXPECT_TRUE(system_->AnswerGuarded(second_query, Multiset())->plan_cached);
}

TEST_F(PlanCacheTest, LabelPromotionStaleMissesAndRecompilesCleanly) {
  // Demote shatters I::stock into per-company partitions; a fan-out plan
  // caches over that family. Promoting the label back to data must
  // stale-miss the cached plan and recompile against the united relation.
  Catalog catalog;
  StockGenConfig cfg;
  cfg.num_companies = 3;
  cfg.num_dates = 4;
  Table s1 = GenerateStockS1(cfg);
  ASSERT_TRUE(InstallStockS1(&catalog, "I", s1).ok());
  IntegrationSystem system(&catalog, "I");
  SchemaEvolver evolver(&catalog, &system);
  ASSERT_TRUE(
      evolver.Apply(DdlOp::DemoteDataToLabel("I", "stock", "company")).ok());
  auto snap = catalog.Snapshot();
  std::vector<std::string> family =
      snap->GetDatabase("I").value()->TableNames();
  ASSERT_GT(family.size(), 1u);

  const char* fan_out = "select R, D from I -> R, R T, T.date D";
  auto cold = system.AnswerGuarded(fan_out, Multiset());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold.value().plan_cached);
  auto warm = system.AnswerGuarded(fan_out, Multiset());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().plan_cached);

  ASSERT_TRUE(
      evolver.Apply(DdlOp::PromoteLabelToData("I", family, "stock", "company"))
          .ok());
  auto promoted = system.AnswerGuarded(fan_out, Multiset());
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_FALSE(promoted.value().plan_cached)
      << "plan compiled over the partition family must not survive promotion";
  // The recompiled fan-out now ranges over the single united relation.
  std::set<std::string> rels;
  const Table& t = promoted.value().table;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    rels.insert(t.row(r)[0].ToString());
  }
  EXPECT_EQ(rels.size(), 1u);
  EXPECT_TRUE(system.AnswerGuarded(fan_out, Multiset())->plan_cached);
}

// ---- plans across commits that change no schema -----------------------------

/// `t`'s rows sorted: a rewriting and the direct plan agree as bags.
std::string Sorted(const Table& t) {
  Table copy = t;
  copy.SortRows();
  return copy.ToString();
}

/// One line per warning: source, code and message, byte for byte.
std::string WarningText(const std::vector<SourceWarning>& warnings) {
  std::string out;
  for (const SourceWarning& w : warnings) {
    out += w.source + ": " + w.status.ToString() + "\n";
  }
  return out;
}

/// `sql` answered by `system` at `snap`.
Result<AnswerResult> AnswerAt(IntegrationSystem* system, const std::string& sql,
                              std::shared_ptr<const CatalogSnapshot> snap,
                              bool multiset = true) {
  AnswerOptions options;
  options.multiset = multiset;
  QueryContext qc(options.guards);
  qc.PinSnapshot(std::move(snap));
  return system->AnswerGuarded(sql, options, &qc);
}

/// I holds the stock facts; s2 is materialized from them, fenced at its
/// install and kept current by a maintainer. This is the durable_ingest
/// layout without the disk.
class MaintainedSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StockGenConfig cfg;
    cfg.num_companies = 5;
    cfg.num_dates = 10;
    s1_ = GenerateStockS1(cfg);
    ASSERT_TRUE(InstallStockS1(&catalog_, "I", s1_).ok());
    system_ = std::make_unique<IntegrationSystem>(&catalog_, "I");
    ASSERT_TRUE(system_->RegisterAndMaterializeSource(kFig6SourceSql).ok());
    auto maintainer = system_->CreateMaintainer(0, "s2");
    ASSERT_TRUE(maintainer.ok()) << maintainer.status().ToString();
    maintainer_.emplace(std::move(maintainer).value());
  }

  void TearDown() override { FailPoints::DisarmAll(); }

  AnswerOptions Multiset() {
    AnswerOptions opts;
    opts.multiset = true;
    return opts;
  }

  /// A fact of the first company, priced above every generated one.
  Row NewFact() const {
    Row row = s1_.row(0);
    row[2] = Value::Int(999);
    return row;
  }

  /// Appends NewFact() to I::stock without the maintainer: s2 goes stale.
  Status AppendBypassingTheMaintainer() {
    return catalog_
        .Mutate([&](CatalogTxn& txn) -> Status {
          DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase("I"));
          DV_ASSIGN_OR_RETURN(Table * stock, db->GetMutableTable("stock"));
          return stock->AppendRow(NewFact());
        })
        .status();
  }

  /// `sql` evaluated directly on I at `snap`, rows sorted.
  std::string Direct(const std::string& sql,
                     std::shared_ptr<const CatalogSnapshot> snap) const {
    QueryEngine engine(&catalog_, "I", Config(1));
    QueryContext qc;
    qc.PinSnapshot(std::move(snap));
    Result<Table> r = engine.ExecuteSql(sql, &qc);
    return r.ok() ? Sorted(r.value()) : r.status().ToString();
  }

  std::string Explain(const std::string& sql) {
    Result<std::string> explain = system_->ExplainOptimized(sql, Multiset());
    return explain.ok() ? explain.value() : explain.status().ToString();
  }

  std::string ChosenSource(const std::string& sql) {
    const std::string explain = Explain(sql);
    size_t at = explain.find("source: ");
    if (at == std::string::npos) return "direct";
    return explain.substr(at + 8, explain.find('\n', at) - at - 8);
  }

  /// A system that never cached anything, with s2 registered and fenced as
  /// system_'s is.
  std::unique_ptr<IntegrationSystem> ColdTwin() {
    auto twin = std::make_unique<IntegrationSystem>(&catalog_, "I");
    EXPECT_TRUE(twin->RegisterSource(kFig6SourceSql).ok());
    const ViewDefinition& ours = *system_->sources()[0];
    ViewDefinition* theirs = twin->sources()[0].get();
    theirs->set_fenced(ours.fenced());
    theirs->AdvanceMaterializedVersion(ours.materialized_version());
    theirs->set_materialization(ours.materialization());
    return twin;
  }

  Catalog catalog_;
  Table s1_;
  std::unique_ptr<IntegrationSystem> system_;
  std::optional<ViewMaintainer> maintainer_;
};

TEST_F(MaintainedSourceTest, RowsOnlyMaintainerCommitKeepsThePlanWarm) {
  auto cold = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold.value().plan_cached);
  // s2 is fresh and usable; the direct plan on I wins on cost.
  ASSERT_EQ(ChosenSource(kFig6Query), "direct");
  ASSERT_NE(Explain(kFig6Query).find("source s2::C usable"),
            std::string::npos);
  ASSERT_TRUE(system_->AnswerGuarded(kFig6Query, Multiset())->plan_cached);
  const uint64_t epoch = catalog_.Snapshot()->schema_epoch();
  const uint64_t invalidations = system_->plan_cache_stats().invalidations;

  // The maintainer appends to I::stock and to s2 in one commit and fences
  // s2 at it: rows changed, no schema and no fence verdict did.
  ASSERT_TRUE(maintainer_->ApplyInserts({NewFact()}).ok());
  EXPECT_EQ(catalog_.Snapshot()->schema_epoch(), epoch);
  auto after = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after.value().plan_cached) << "a row commit dropped the plan";
  EXPECT_TRUE(after.value().warnings.empty())
      << WarningText(after.value().warnings);
  EXPECT_EQ(after.value().table.num_rows(), cold.value().table.num_rows() + 1);
  EXPECT_NE(after.value().table.ToString().find("999"), std::string::npos);
  EXPECT_EQ(Sorted(after.value().table),
            Direct(kFig6Query, after.value().snapshot));
  EXPECT_EQ(system_->plan_cache_stats().invalidations, invalidations);
  // The commit moved s2's fence with it: s2 is still fresh and usable.
  EXPECT_NE(Explain(kFig6Query).find("source s2::C usable"),
            std::string::npos);
}

TEST_F(PlanCacheTest, UnrelatedRowCommitKeepsThePlanWarm) {
  // Creating a database is a schema change; replacing the rows of one of
  // its tables is not.
  ASSERT_TRUE(catalog_
                  .PutTable("scratch", "t",
                            Table(Schema({{"x", TypeKind::kInt}})))
                  .ok());
  auto cold = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(system_->AnswerGuarded(kFig6Query, Multiset())->plan_cached);

  Table rows(Schema({{"x", TypeKind::kInt}}));
  rows.AppendRowUnchecked({Value::Int(1)});
  ASSERT_TRUE(catalog_.PutTable("scratch", "t", std::move(rows)).ok());
  auto after = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after.value().plan_cached);
  EXPECT_EQ(after.value().observer->metrics.Value(
                counters::kPlanCacheInvalidations),
            0u);
  EXPECT_EQ(after.value().table.ToString(), cold.value().table.ToString());
}

TEST_F(MaintainedSourceTest, FencingCommitStaleMissesLikeAFreshSystem) {
  ASSERT_TRUE(system_->AnswerGuarded(kFig6Query, Multiset()).ok());
  ASSERT_TRUE(system_->AnswerGuarded(kFig6Query, Multiset())->plan_cached);
  ASSERT_NE(Explain(kFig6Query).find("direct plan on I chosen\n"),
            std::string::npos);
  const uint64_t epoch = catalog_.Snapshot()->schema_epoch();

  // A row commit to I that bypasses the maintainer fences s2 off: the plan
  // that chose s2 goes stale although no schema changed.
  ASSERT_TRUE(AppendBypassingTheMaintainer().ok());
  EXPECT_EQ(catalog_.Snapshot()->schema_epoch(), epoch);
  auto fenced = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(fenced.ok()) << fenced.status().ToString();
  EXPECT_FALSE(fenced.value().plan_cached);
  EXPECT_EQ(fenced.value().observer->metrics.Value(
                counters::kPlanCacheInvalidations),
            1u);
  EXPECT_NE(WarningText(fenced.value().warnings).find("stale materialization"),
            std::string::npos);
  EXPECT_EQ(Sorted(fenced.value().table),
            Direct(kFig6Query, fenced.value().snapshot));
  // No source is usable now, so the direct plan answers for want of one.
  const std::string explained = Explain(kFig6Query);
  EXPECT_EQ(ChosenSource(kFig6Query), "direct");
  EXPECT_NE(explained.find("warning DV007 [Sec. 6]: source s2::C fenced off"),
            std::string::npos)
      << explained;
  EXPECT_EQ(explained.find("estimate"), std::string::npos) << explained;

  // A system that never cached anything, with the same source and fence,
  // answers and explains the same at the same snapshot.
  std::unique_ptr<IntegrationSystem> twin = ColdTwin();
  IntegrationSystem& fresh = *twin;
  auto want = AnswerAt(&fresh, kFig6Query, fenced.value().snapshot);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(WarningText(fenced.value().warnings),
            WarningText(want.value().warnings));
  EXPECT_EQ(fenced.value().table.ToString(), want.value().table.ToString());
  fresh.ClearPlanCache();
  EXPECT_EQ(system_->ExplainOptimized(kFig6Query, Multiset()).value(),
            fresh.ExplainOptimized(kFig6Query, Multiset()).value());

  // Another such commit leaves every verdict as it was, so the direct plan
  // hits; its warning names the new snapshot, as a cold answer's does.
  ASSERT_TRUE(AppendBypassingTheMaintainer().ok());
  auto hit = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit.value().plan_cached);
  fresh.ClearPlanCache();
  auto cold_twin = AnswerAt(&fresh, kFig6Query, hit.value().snapshot);
  ASSERT_TRUE(cold_twin.ok());
  EXPECT_EQ(WarningText(hit.value().warnings),
            WarningText(cold_twin.value().warnings));
  EXPECT_NE(WarningText(hit.value().warnings),
            WarningText(fenced.value().warnings));
  EXPECT_EQ(hit.value().table.ToString(), cold_twin.value().table.ToString());

  // Re-materializing s2 lifts the fence: a stale miss back to the costed
  // choice, with s2 usable again.
  uint64_t rebuilt = 0;
  ASSERT_TRUE(ViewMaterializer::MaterializeSql(kFig6SourceSql,
                                               system_->engine(), &catalog_,
                                               "I", nullptr, &rebuilt)
                  .ok());
  system_->sources()[0]->AdvanceMaterializedVersion(rebuilt);
  EXPECT_EQ(catalog_.Snapshot()->schema_epoch(), epoch);
  auto back = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_FALSE(back.value().plan_cached);
  EXPECT_TRUE(back.value().warnings.empty())
      << WarningText(back.value().warnings);
  EXPECT_EQ(ChosenSource(kFig6Query), "direct");
  EXPECT_NE(Explain(kFig6Query).find("source s2::C usable"),
            std::string::npos);
  EXPECT_EQ(Sorted(back.value().table),
            Direct(kFig6Query, back.value().snapshot));
}

TEST_F(MaintainedSourceTest, FencedFanOutLosesToTheDirectPlan) {
  // s2 answers by a fan-out over its five company relations; I::stock
  // holds the same facts in one.
  auto answer = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer.value().warnings.empty())
      << WarningText(answer.value().warnings);
  EXPECT_EQ(Sorted(answer.value().table),
            Direct(kFig6Query, answer.value().snapshot));
  EXPECT_EQ(answer.value().observer->metrics.Value(
                counters::kGroundingsEvaluated),
            0u);
  const std::string explained = Explain(kFig6Query);
  EXPECT_NE(explained.find("== answer ==\ndirect plan on I\n"
                           "== analysis ==\n"
                           "source s2::C usable: estimate 5 scan(s)\n"
                           "direct plan on I: estimate 1 scan(s)\n"
                           "direct plan on I chosen\n"
                           "== plan ==\n"
                           "branch 1: first-order\n"),
            std::string::npos)
      << explained;
}

TEST_F(MaintainedSourceTest, FencedFirstOrderCopyTiesAndWins) {
  // A first-order copy of I::stock scans one relation, as the direct plan
  // does: the tie goes to the registered source.
  IntegrationSystem system(&catalog_, "I");
  ASSERT_TRUE(system
                  .RegisterAndMaterializeSource(
                      "create view c1::stock(company, date, price) as "
                      "select C, D, P from I::stock T, T.company C, "
                      "T.date D, T.price P")
                  .ok());
  auto answer = system.AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer.value().warnings.empty())
      << WarningText(answer.value().warnings);
  EXPECT_EQ(Sorted(answer.value().table),
            Direct(kFig6Query, answer.value().snapshot));
  Result<std::string> explained =
      system.ExplainOptimized(kFig6Query, Multiset());
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_NE(explained.value().find("== answer ==\nsource: c1::stock\n"),
            std::string::npos)
      << explained.value();
  EXPECT_NE(explained.value().find("source c1::stock usable: estimate 1 "
                                   "scan(s)\n"
                                   "direct plan on I: estimate 1 scan(s)\n"
                                   "source c1::stock chosen\n"),
            std::string::npos)
      << explained.value();
}

TEST_F(MaintainedSourceTest, CostChosenDirectPlanTakesShapeHitsAcrossLiterals) {
  auto first = system_->AnswerGuarded(kFig6Query, Multiset());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::string other =
      "select C, P from I::stock T, T.company C, T.price P where P > 350";
  for (const char* sql : {other.c_str(),
                          "select C, P from I::stock T, T.company C, "
                          "T.price P where P > 120"}) {
    SCOPED_TRACE(sql);
    auto rebound = system_->AnswerGuarded(sql, Multiset());
    ASSERT_TRUE(rebound.ok()) << rebound.status().ToString();
    EXPECT_FALSE(rebound.value().plan_cached);
    EXPECT_EQ(rebound.value().observer->metrics.Value(
                  counters::kPlanCacheShapeHits),
              1u);
    EXPECT_TRUE(rebound.value().warnings.empty())
        << WarningText(rebound.value().warnings);
    EXPECT_EQ(Sorted(rebound.value().table),
              Direct(sql, rebound.value().snapshot));
    // Its EXPLAIN (an exact hit now) equals a cold twin's.
    std::unique_ptr<IntegrationSystem> twin = ColdTwin();
    Result<std::string> cold = twin->ExplainOptimized(sql, Multiset());
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(Explain(sql), cold.value());
    EXPECT_NE(cold.value().find("direct plan on I chosen\n"),
              std::string::npos);
  }
}

TEST(MaintainerFenceTest, MaintainerCommitKeepsABypassedMaterializationFenced) {
  // A commit that bypasses the maintainer leaves s2 without the 999 fact. A
  // later maintainer delta adds the 998 fact to I and s2, and must not
  // un-fence s2, which still lacks 999.
  StockGenConfig cfg;
  cfg.num_companies = 3;
  cfg.num_dates = 5;
  const Table s1 = GenerateStockS1(cfg);
  Catalog catalog;
  ASSERT_TRUE(InstallStockS1(&catalog, "I", s1).ok());
  IntegrationSystem system(&catalog, "I");
  ASSERT_TRUE(system.RegisterAndMaterializeSource(kFig6SourceSql).ok());
  auto maintainer = system.CreateMaintainer(0, "s2");
  ASSERT_TRUE(maintainer.ok()) << maintainer.status().ToString();
  auto fact = [&](int64_t price) {
    Row row = s1.row(0);
    row[2] = Value::Int(price);
    return row;
  };
  ASSERT_TRUE(catalog
                  .Mutate([&](CatalogTxn& txn) -> Status {
                    DV_ASSIGN_OR_RETURN(Database * db,
                                        txn.GetMutableDatabase("I"));
                    DV_ASSIGN_OR_RETURN(Table * stock,
                                        db->GetMutableTable("stock"));
                    return stock->AppendRow(fact(999));
                  })
                  .ok());
  ASSERT_TRUE(maintainer.value().ApplyInserts({fact(998)}).ok());
  EXPECT_TRUE(system.sources()[0]->IsStaleAgainst(*catalog.Snapshot()));

  const std::string sql =
      "select C, P from I::stock T, T.company C, T.price P where P > 900";
  AnswerOptions multiset;
  multiset.multiset = true;
  Result<std::string> explained = system.ExplainOptimized(sql, multiset);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_NE(explained.value().find(
                "warning DV007 [Sec. 6]: source s2::C fenced off"),
            std::string::npos)
      << explained.value();
  auto answer = system.AnswerGuarded(sql, multiset);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer.value().table.num_rows(), 2u);
  QueryEngine engine(&catalog, "I", Config(1));
  QueryContext qc;
  qc.PinSnapshot(answer.value().snapshot);
  Result<Table> direct = engine.ExecuteSql(sql, &qc);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(Sorted(answer.value().table), Sorted(direct.value()));
  EXPECT_NE(WarningText(answer.value().warnings)
                .find("s2::C: Unavailable: stale materialization"),
            std::string::npos)
      << WarningText(answer.value().warnings);
}

TEST_F(MaintainedSourceTest, ConcurrentReadersNeverSeeAMaintainedSourceFenced) {
  // The maintainer fences s2 with the commit that updates it, before that
  // commit publishes: no reader may pin a version whose s2 fence lags.
  constexpr int kReaders = 3;
  constexpr int kPairs = 200;
  std::atomic<bool> done{false};
  std::vector<std::string> failures(kReaders);
  std::vector<int> answered(kReaders, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load() && failures[r].empty()) {
        auto a = system_->AnswerGuarded(kFig6Query, Multiset());
        if (!a.ok()) {
          failures[r] = a.status().ToString();
          break;
        }
        const std::string warnings = WarningText(a.value().warnings);
        if (warnings.find("stale materialization") != std::string::npos ||
            warnings.find("DV007") != std::string::npos) {
          failures[r] = "at version " +
                        std::to_string(a.value().snapshot_version) + ": " +
                        warnings;
        } else if (Sorted(a.value().table) !=
                   Direct(kFig6Query, a.value().snapshot)) {
          failures[r] = "answer differs from I at version " +
                        std::to_string(a.value().snapshot_version);
        }
        ++answered[r];
      }
    });
  }
  Status st;
  for (int i = 0; i < kPairs && st.ok(); ++i) {
    st = maintainer_->ApplyInserts({NewFact()});
    if (st.ok()) st = maintainer_->ApplyDeletes({NewFact()});
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_TRUE(failures[r].empty()) << "reader " << r << ": " << failures[r];
    EXPECT_GT(answered[r], 0);
  }
}

TEST(PlanAcrossCommitsTest, EmptyInstallIsFencedAtItsBaseVersion) {
  // A body that selects no rows installs no partition, so its commit
  // touches nothing; the source is still fenced, at the version it was
  // built against, and a later commit to I stales it.
  StockGenConfig cfg;
  cfg.num_companies = 5;
  cfg.num_dates = 10;
  const Table s1 = GenerateStockS1(cfg);
  Catalog catalog;
  ASSERT_TRUE(catalog.PutTable("I", "stock", Table(s1.schema())).ok());
  IntegrationSystem system(&catalog, "I");
  auto registered = system.RegisterAndMaterializeSource(kFig6SourceSql);
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();
  EXPECT_TRUE(registered.value()->materialization().empty());
  EXPECT_TRUE(registered.value()->fenced());
  EXPECT_EQ(registered.value()->materialized_version(), catalog.version());
  AnswerOptions multiset;
  multiset.multiset = true;
  auto before = system.AnswerGuarded(kFig6Query, multiset);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before.value().table.num_rows(), 0u);

  Row fact = s1.row(0);
  fact[2] = Value::Int(999);
  ASSERT_TRUE(catalog
                  .Mutate([&](CatalogTxn& txn) -> Status {
                    DV_ASSIGN_OR_RETURN(Database * db,
                                        txn.GetMutableDatabase("I"));
                    DV_ASSIGN_OR_RETURN(Table * stock,
                                        db->GetMutableTable("stock"));
                    return stock->AppendRow(fact);
                  })
                  .ok());
  auto after = system.AnswerGuarded(kFig6Query, multiset);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after.value().plan_cached);
  EXPECT_NE(WarningText(after.value().warnings).find("stale materialization"),
            std::string::npos)
      << WarningText(after.value().warnings);
  QueryEngine engine(&catalog, "I", Config(1));
  QueryContext qc;
  qc.PinSnapshot(after.value().snapshot);
  Result<Table> direct = engine.ExecuteSql(kFig6Query, &qc);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(direct.value().num_rows(), 1u);
  EXPECT_EQ(Sorted(after.value().table), Sorted(direct.value()));
}

TEST(PlanAcrossCommitsTest, GrowthPastMorselRowsKeepsBytesAcrossThreads) {
  // The plan is built while I::facts fits one morsel; the pool decision is
  // the run's, so the warm plan goes parallel once the table grows.
  auto facts = [](int n) {
    Table t(Schema({{"k", TypeKind::kInt}, {"v", TypeKind::kInt}}));
    for (int i = 0; i < n; ++i) {
      t.AppendRowUnchecked({Value::Int(i), Value::Int(i * 7 % 13)});
    }
    return t;
  };
  Catalog catalog;
  ASSERT_TRUE(catalog.PutTable("I", "facts", facts(4)).ok());
  IntegrationOptions serial;
  serial.exec = Config(1);
  IntegrationOptions wide;
  wide.exec = Config(8);
  IntegrationSystem t1(&catalog, "I", serial);
  IntegrationSystem t8(&catalog, "I", wide);
  const char* sql = "select K, V from I::facts T, T.k K, T.v V where V > 2";
  ASSERT_TRUE(t8.AnswerGuarded(sql, {}).ok());
  ASSERT_TRUE(t8.AnswerGuarded(sql, {})->plan_cached);

  ASSERT_TRUE(catalog.PutTable("I", "facts", facts(200)).ok());
  auto wide_answer = t8.AnswerGuarded(sql, {});
  ASSERT_TRUE(wide_answer.ok()) << wide_answer.status().ToString();
  EXPECT_TRUE(wide_answer.value().plan_cached);
  EXPECT_GT(wide_answer.value().observer->metrics.Value(
                counters::kMorselsExecuted),
            1u);
  auto serial_answer = AnswerAt(&t1, sql, wide_answer.value().snapshot,
                                /*multiset=*/false);
  ASSERT_TRUE(serial_answer.ok());
  EXPECT_GT(serial_answer.value().table.num_rows(), 100u);
  EXPECT_EQ(wide_answer.value().table.ToString(),
            serial_answer.value().table.ToString());
}

}  // namespace
}  // namespace dynview
