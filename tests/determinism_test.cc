// Differential determinism: the same query over seeded random catalogs must
// produce byte-identical result tables AND byte-identical merged counters at
// num_threads in {1, 2, 8}. The counters are the oracle: any race or
// thread-count-dependent counting site shows up as a diff here.
//
// morsels.executed is the one documented exception — it reflects how work
// was split, which legitimately varies with the thread count — so it is
// stripped before comparison.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "engine/query_engine.h"
#include "observe/observer.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

// Counters allowed to differ across thread counts.
bool ThreadCountVariant(const std::string& name) {
  return name == counters::kMorselsExecuted;
}

std::string InvariantCounters(const MetricsRegistry& m) {
  std::string out;
  for (const auto& [name, value] : m.Merged()) {
    if (ThreadCountVariant(name)) continue;
    out += name + "=" + std::to_string(value) + "\n";
  }
  return out;
}

struct RunResult {
  std::string table;
  std::string counters;
};

RunResult RunAt(Catalog* catalog, const std::string& db,
                const std::string& sql, int num_threads) {
  ExecConfig exec;
  exec.num_threads = num_threads;
  exec.morsel_rows = 3;  // Small morsels: maximal splitting at 8 threads.
  QueryEngine engine(catalog, db, exec);
  QueryObserver obs;
  QueryContext qc;
  qc.set_observer(&obs);
  auto r = engine.ExecuteSql(sql, &qc);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  RunResult out;
  if (r.ok()) out.table = r.value().ToString();
  out.counters = InvariantCounters(obs.metrics);
  return out;
}

void ExpectIdenticalAcrossThreadCounts(Catalog* catalog, const std::string& db,
                                       const std::string& sql) {
  const RunResult base = RunAt(catalog, db, sql, 1);
  EXPECT_FALSE(base.counters.empty()) << sql;
  for (int threads : {2, 8}) {
    const RunResult got = RunAt(catalog, db, sql, threads);
    EXPECT_EQ(base.table, got.table)
        << sql << " table differs at num_threads=" << threads;
    EXPECT_EQ(base.counters, got.counters)
        << sql << " counters differ at num_threads=" << threads;
  }
}

TEST(DeterminismTest, StockFanOutIdenticalAcrossThreadCounts) {
  for (uint32_t seed : {7u, 19u, 101u}) {
    StockGenConfig cfg;
    cfg.num_companies = 5;
    cfg.num_dates = 11;
    cfg.prices_per_day = 2;
    cfg.seed = seed;
    Catalog catalog;
    ASSERT_TRUE(InstallStockS2(&catalog, "s2", GenerateStockS1(cfg)).ok());
    ExpectIdenticalAcrossThreadCounts(
        &catalog, "s2",
        "select R, D, P from s2 -> R, R T, T.date D, T.price P "
        "where P > 100");
    ExpectIdenticalAcrossThreadCounts(
        &catalog, "s2",
        "select distinct R, D from s2 -> R, R T, T.date D, T.price P "
        "where P > 60 order by R, D");
  }
}

TEST(DeterminismTest, JoinQueryIdenticalAcrossThreadCounts) {
  for (uint32_t seed : {3u, 77u}) {
    StockGenConfig cfg;
    cfg.num_companies = 6;
    cfg.num_dates = 9;
    cfg.seed = seed;
    Catalog catalog;
    ASSERT_TRUE(InstallDb0(&catalog, "db0", cfg).ok());
    ExpectIdenticalAcrossThreadCounts(
        &catalog, "db0",
        "select C, Y, P from db0::stock T, T.company C, T.price P, "
        "db0::cotype U, U.co C2, U.type Y where C = C2 and P > 80");
  }
}

// Random catalogs: relations with random names/arity/rows, queried through a
// schema-variable fan-out. Exercises grounding enumeration + union merge on
// shapes the stock workload doesn't cover.
TEST(DeterminismTest, RandomCatalogFanOutIdenticalAcrossThreadCounts) {
  for (uint32_t seed : {1u, 42u, 9001u}) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> nrel(2, 5);
    std::uniform_int_distribution<int> nrow(0, 40);
    std::uniform_int_distribution<int> val(0, 500);
    Catalog catalog;
    const int rels = nrel(rng);
    for (int r = 0; r < rels; ++r) {
      Table t(Schema(
          {{"k", TypeKind::kInt}, {"v", TypeKind::kInt}}));
      const int rows = nrow(rng);
      for (int i = 0; i < rows; ++i) {
        ASSERT_TRUE(
            t.AppendRow({Value::Int(i), Value::Int(val(rng))}).ok());
      }
      std::ostringstream name;
      name << "rel" << static_cast<char>('a' + r);
      ASSERT_TRUE(catalog.AddTable("rnd", name.str(), std::move(t)).ok());
    }
    ExpectIdenticalAcrossThreadCounts(
        &catalog, "rnd",
        "select R, K, V from rnd -> R, R T, T.k K, T.v V where V > 250");
  }
}

}  // namespace
}  // namespace dynview
