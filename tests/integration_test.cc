// End-to-end Fig. 6 architecture tests: the three Sec. 1/Sec. 3.3
// applications — legacy stock integration, database publishing (schema
// independent querying + keyword search), and physical data independence.

#include <gtest/gtest.h>

#include "integration/integration.h"
#include "engine/operators.h"
#include "evolve/evolution.h"
#include "optimizer/optimizer.h"
#include "schemasql/view_materializer.h"
#include "workload/hotel_data.h"
#include "workload/stock_data.h"
#include "workload/tickets_data.h"

namespace dynview {
namespace {

/// AnswerGuarded options for bag (multiset) or set semantics.
AnswerOptions Semantics(bool multiset) {
  AnswerOptions options;
  options.multiset = multiset;
  return options;
}

// ---- Legacy stock integration (Sec. 3.3 "Legacy System Integration") -------

class StockIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.num_companies = 4;
    cfg_.num_dates = 6;
    s1_ = GenerateStockS1(cfg_);
    // The integration I is the s1 layout; the legacy sources s2 and s3 hold
    // the actual data, derived consistently.
    ASSERT_TRUE(InstallStockS1(&catalog_, "I", s1_).ok());
    ASSERT_TRUE(InstallStockS2(&catalog_, "s2", s1_).ok());
    ASSERT_TRUE(InstallStockS3(&catalog_, "s3", s1_).ok());
    system_ = std::make_unique<IntegrationSystem>(&catalog_, "I");
  }

  StockGenConfig cfg_;
  Table s1_;
  Catalog catalog_;
  std::unique_ptr<IntegrationSystem> system_;
};

TEST_F(StockIntegrationTest, AnswerThroughS2) {
  // Register s2 (one relation per company) as a dynamic view over I (Fig. 5
  // v4); queries on I are answered from s2's materialization.
  ASSERT_TRUE(system_
                  ->RegisterSource(
                      "create view s2::C(date, price) as select D, P "
                      "from I::stock T, T.company C, T.date D, T.price P")
                  .ok());
  auto answer = system_->AnswerGuarded(
      "select C, P from I::stock T, T.company C, T.price P where P > 200",
      Semantics(/*multiset=*/true));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  QueryEngine direct(&catalog_, "I");
  auto expected = direct.ExecuteSql(
      "select C, P from I::stock T, T.company C, T.price P where P > 200");
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(answer.value().table.BagEquals(expected.value()));
  // The rewriting really goes to s2: it is higher order.
  auto rewriting = system_->Rewrite(
      "select C, P from I::stock T, T.company C, T.price P where P > 200",
      true);
  ASSERT_TRUE(rewriting.ok());
  EXPECT_TRUE(rewriting.value().query->IsHigherOrder());
}

TEST_F(StockIntegrationTest, AnswerThroughS3SetSemantics) {
  ASSERT_TRUE(system_
                  ->RegisterSource(
                      "create view s3::stock(date, C) as select D, P "
                      "from I::stock T, T.company C, T.date D, T.price P")
                  .ok());
  // Thm. 5.4: the pivot source cannot give a bag-correct answer...
  auto strict = system_->Rewrite(
      "select C from I::stock T, T.company C, T.price P where P > 100",
      /*multiset=*/true);
  EXPECT_FALSE(strict.ok());
  // ...but a set-correct one it can.
  auto answer = system_->AnswerGuarded(
      "select distinct C from I::stock T, T.company C, T.price P "
      "where P > 100",
      Semantics(/*multiset=*/false));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  QueryEngine direct(&catalog_, "I");
  auto expected = direct.ExecuteSql(
      "select distinct C from I::stock T, T.company C, T.price P "
      "where P > 100");
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(answer.value().table.SetEquals(expected.value()));
}

TEST_F(StockIntegrationTest, DataIndependenceUnderSourceEvolution) {
  // The Sec. 1.1 requirement: the view definition does not change when
  // companies come and go. Register the s2 source, then add a company to
  // the sources; the SAME definition answers the new query.
  ASSERT_TRUE(system_
                  ->RegisterSource(
                      "create view s2::C(date, price) as select D, P "
                      "from I::stock T, T.company C, T.date D, T.price P")
                  .ok());
  // A new company appears in s2 (and, for comparison, in I).
  Table newco(Schema({{"date", TypeKind::kDate}, {"price", TypeKind::kInt}}));
  newco.AppendRowUnchecked(
      {Value::MakeDate(Date::Parse("1998-02-01").value()), Value::Int(500)});
  // One commit: the new company lands in s2 and I together.
  ASSERT_TRUE(catalog_
                  .Mutate([&](CatalogTxn& txn) -> Status {
                    DV_ASSIGN_OR_RETURN(Database * s2,
                                        txn.GetMutableDatabase("s2"));
                    s2->PutTable("coNEW", newco);
                    DV_ASSIGN_OR_RETURN(Database * i,
                                        txn.GetMutableDatabase("I"));
                    DV_ASSIGN_OR_RETURN(Table * istock,
                                        i->GetMutableTable("stock"));
                    return istock->AppendRow(
                        {Value::String("coNEW"),
                         Value::MakeDate(Date::Parse("1998-02-01").value()),
                         Value::Int(500)});
                  })
                  .ok());
  auto answer = system_->AnswerGuarded(
      "select C, P from I::stock T, T.company C, T.price P where P > 400",
      Semantics(/*multiset=*/true));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  bool found = false;
  for (const Row& r : answer.value().table.rows()) {
    if (r[0].as_string() == "coNEW") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(StockIntegrationTest, VirtualIntegrationWithNoLocalData) {
  // The true Fig. 6 setting: I is purely *virtual* — its stock table exists
  // for binding and statistics but holds no rows; ALL data lives under the
  // legacy s2 layout. Queries on I are still answered, entirely via
  // rewriting.
  Catalog virt;
  // Empty I::stock with the right schema.
  ASSERT_TRUE(virt.PutTable("I", "stock",
                            Table(Schema({{"company", TypeKind::kString},
                                          {"date", TypeKind::kDate},
                                          {"price", TypeKind::kInt}})))
                  .ok());
  ASSERT_TRUE(InstallStockS2(&virt, "s2", s1_).ok());
  IntegrationSystem system(&virt, "I");
  ASSERT_TRUE(system
                  .RegisterSource(
                      "create view s2::C(date, price) as select D, P "
                      "from I::stock T, T.company C, T.date D, T.price P")
                  .ok());
  auto answer = system.AnswerGuarded(
      "select C, P from I::stock T, T.company C, T.price P where P > 200",
      Semantics(/*multiset=*/true));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  // Reference: the same query over the original (non-virtual) catalog.
  QueryEngine ref(&catalog_, "I");
  auto expected = ref.ExecuteSql(
      "select C, P from I::stock T, T.company C, T.price P where P > 200");
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(answer.value().table.BagEquals(expected.value()));
  EXPECT_GT(answer.value().table.num_rows(), 0u);
}

TEST_F(StockIntegrationTest, AggregateSourceAnswersByReaggregation) {
  // Sec. 5.2 / Ex. 5.3 through the architecture: a per-(company, date)
  // MAX source answers a per-company MAX query by re-aggregation.
  ASSERT_TRUE(system_
                  ->RegisterAndMaterializeSource(
                      "create view dailymax::stats(co, dt, mx) as "
                      "select C, D, max(P) from I::stock T, T.company C, "
                      "T.date D, T.price P group by C, D")
                  .ok());
  const std::string q =
      "select C, max(P) from I::stock T, T.company C, T.price P group by C";
  auto rewriting = system_->Rewrite(q, /*multiset=*/false);
  ASSERT_TRUE(rewriting.ok()) << rewriting.status().ToString();
  auto answer = system_->AnswerGuarded(q, Semantics(/*multiset=*/false));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  QueryEngine direct(&catalog_, "I");
  auto expected = direct.ExecuteSql(q);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(answer.value().table.BagEquals(expected.value()))
      << rewriting.value().query->ToString();
}

TEST_F(StockIntegrationTest, FallsBackToLocalIntegrationData) {
  // No sources registered: I itself holds data and answers directly.
  auto answer = system_->AnswerGuarded(
      "select P from I::stock T, T.price P where P > 200",
      Semantics(/*multiset=*/true));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_GT(answer.value().table.num_rows(), 0u);
}

TEST(SelfJoinRewritingTest, RepeatedApplicationKeepsEachScansVariables) {
  // Fig. 11: a self-join over I answered by two scans of s2's relations.
  // The rewriting declares `date` on the first view scan and `U_date` on the
  // second; the second scan's own `date` column must not capture `date`.
  Catalog catalog;
  Table stock(Schema({{"company", TypeKind::kString},
                      {"date", TypeKind::kDate},
                      {"price", TypeKind::kInt}}));
  const std::vector<std::string> companies = {"coa", "cob", "coc"};
  for (size_t c = 0; c < companies.size(); ++c) {
    Table rel(Schema({{"date", TypeKind::kDate}, {"price", TypeKind::kInt}}));
    for (int d = 0; d < 3; ++d) {
      const Value date = Value::MakeDate(Date::FromYmd(1998, 1, 1 + d).value());
      const Value price = Value::Int(100 + 10 * static_cast<int>(c) + d);
      stock.AppendRowUnchecked({Value::String(companies[c]), date, price});
      rel.AppendRowUnchecked({date, price});
    }
    ASSERT_TRUE(catalog.PutTable("s2", companies[c], std::move(rel)).ok());
  }
  ASSERT_TRUE(catalog.PutTable("I", "stock", std::move(stock)).ok());
  IntegrationSystem system(&catalog, "I");
  ASSERT_TRUE(system
                  .RegisterSource(
                      "create view s2::C(date, price) as select D, P "
                      "from I::stock T, T.company C, T.date D, T.price P")
                  .ok());
  const std::string q =
      "select T.date from I::stock T, I::stock U "
      "where T.date = U.date and T.price < U.price";
  QueryEngine direct(&catalog, "I");
  auto expected = direct.ExecuteSql(q);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ(expected.value().num_rows(), 9u);
  for (bool multiset : {false, true}) {
    SCOPED_TRACE(multiset);
    auto explained = system.ExplainOptimized(q, Semantics(multiset));
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();
    EXPECT_NE(explained.value().find("source: s2::C\n"), std::string::npos)
        << explained.value();
    auto answer = system.AnswerGuarded(q, Semantics(multiset));
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    if (multiset) {
      EXPECT_TRUE(answer.value().table.BagEquals(expected.value()))
          << answer.value().table.ToString(20);
    } else {
      EXPECT_TRUE(answer.value().table.SetEquals(expected.value()))
          << answer.value().table.ToString(20);
    }
  }
}

TEST_F(StockIntegrationTest, UnparseableSqlKeepsTheParseError) {
  // With no sources and with one, text I's grammar rejects fails with the
  // parser's positioned error — never "no registered source can answer".
  const std::string bad = "selec 1";
  for (int sources = 0; sources < 2; ++sources) {
    SCOPED_TRACE(sources);
    if (sources == 1) {
      ASSERT_TRUE(system_
                      ->RegisterSource(
                          "create view s2::C(date, price) as select D, P "
                          "from I::stock T, T.company C, T.date D, T.price P")
                      .ok());
    }
    auto answer = system_->AnswerGuarded(bad, AnswerOptions{});
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().code(), StatusCode::kParseError)
        << answer.status().ToString();
    EXPECT_NE(answer.status().message().find("at offset 0"), std::string::npos)
        << answer.status().ToString();
    auto rewriting = system_->Rewrite(bad, /*multiset=*/true);
    ASSERT_FALSE(rewriting.ok());
    EXPECT_EQ(rewriting.status().code(), StatusCode::kParseError);
  }
}

TEST_F(StockIntegrationTest, VanishedMaterializationFallsBackOnce) {
  // A first-order, unfenced source whose materialization relation DDL then
  // drops: the rewriting still chooses it, execution finds no relation, and
  // the answer degrades to the direct plan on I with exactly one warning —
  // on the cold call, on a repeat, and through a prepared statement.
  ASSERT_TRUE(catalog_.PutTable("leg", "stock", s1_).ok());
  ASSERT_TRUE(system_
                  ->RegisterSource(
                      "create view leg::stock(company, date, price) as "
                      "select C, D, P "
                      "from I::stock T, T.company C, T.date D, T.price P")
                  .ok());
  ASSERT_TRUE(catalog_.DropTable("leg", "stock").ok());
  const std::string q =
      "select C, P from I::stock T, T.company C, T.price P where P > 200";
  QueryEngine direct(&catalog_, "I");
  auto expected = direct.ExecuteSql(q);
  ASSERT_TRUE(expected.ok());
  ASSERT_GT(expected.value().num_rows(), 0u);

  auto prepared = system_->Prepare(q);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  const AnswerOptions options = Semantics(/*multiset=*/true);
  const char* calls[] = {"cold", "repeat", "prepared"};
  for (const char* call : calls) {
    SCOPED_TRACE(call);
    auto answer = std::string(call) == "prepared"
                      ? system_->ExecutePrepared(*prepared.value(), {}, options)
                      : system_->AnswerGuarded(q, options);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_TRUE(answer.value().table.BagEquals(expected.value()));
    EXPECT_FALSE(answer.value().plan_cached);
    ASSERT_EQ(answer.value().warnings.size(), 1u);
    const SourceWarning& w = answer.value().warnings[0];
    EXPECT_EQ(w.source, "leg::stock");
    EXPECT_EQ(w.status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(w.status.message().rfind("stale materialization: ", 0), 0u)
        << w.status.message();
    const std::string tail = "; answered from the direct plan on I";
    ASSERT_GE(w.status.message().size(), tail.size());
    EXPECT_EQ(w.status.message().substr(w.status.message().size() -
                                        tail.size()),
              tail);
  }
}

TEST_F(StockIntegrationTest, DirectErrorBeatsFencedRewriteNotFound) {
  // Every source fenced stale, then DDL retypes I's price column to STRING:
  // the rewrite finds no usable source (NotFound), and the direct plan on I
  // fails comparing STRING with INT. The direct error is the query's real
  // outcome, exactly what the direct engine reports; only a direct NotFound
  // yields to the rewrite's (which names the fenced sources).
  ASSERT_TRUE(system_
                  ->RegisterAndMaterializeSource(
                      "create view s2m::C(date, price) as select D, P "
                      "from I::stock T, T.company C, T.date D, T.price P")
                  .ok());
  SchemaEvolver evolver(&catalog_, system_.get());
  EvolveOptions keep_fenced;
  keep_fenced.rematerialize = false;
  ASSERT_TRUE(
      evolver.Apply(DdlOp::DropAttribute("I", "stock", "price"), keep_fenced)
          .ok());
  ASSERT_TRUE(evolver
                  .Apply(DdlOp::AddAttribute("I", "stock", "price",
                                             Value::String("n/a")),
                         keep_fenced)
                  .ok());
  auto snap = catalog_.Snapshot();
  for (const auto& source : system_->sources()) {
    ASSERT_TRUE(source->IsStaleAgainst(*snap));
  }

  const std::string q =
      "select C, P from I::stock T, T.company C, T.price P where P > 200";
  QueryEngine direct(&catalog_, "I");
  auto expected = direct.ExecuteSql(q);
  ASSERT_EQ(expected.status().code(), StatusCode::kTypeError);
  auto answer = system_->AnswerGuarded(q, Semantics(/*multiset=*/true));
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().ToString(), expected.status().ToString());

  // A direct NotFound still reports the rewrite's NotFound.
  auto missing = system_->AnswerGuarded(
      "select C from I::nosuch T, T.company C", Semantics(true));
  ASSERT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("no registered source"),
            std::string::npos)
      << missing.status().ToString();
}

// ---- EXPLAIN renders the plan an answer runs --------------------------------

/// A virtual integration schema: I::stock is empty, and its data lives only
/// in s2's per-company relations. Six decoy sources that cannot answer a
/// price query are registered before s2::C, so Alg. 5.1 probes them first.
class VirtualExplainTest : public ::testing::Test {
 protected:
  static constexpr int kCompanies = 8;

  void SetUp() override {
    ASSERT_TRUE(catalog_
                    .PutTable("I", "stock",
                              Table(Schema({{"company", TypeKind::kString},
                                            {"date", TypeKind::kDate},
                                            {"price", TypeKind::kInt}})))
                    .ok());
    for (int c = 0; c < kCompanies; ++c) {
      Table t(Schema({{"date", TypeKind::kDate}, {"price", TypeKind::kInt}}));
      for (int d = 0; d < 5; ++d) {
        t.AppendRowUnchecked(
            {Value::MakeDate(Date::FromYmd(1998, 1, 1 + d).value()),
             Value::Int(100 + 10 * c + d)});
      }
      ASSERT_TRUE(
          catalog_.PutTable("s2", "co00" + std::to_string(c), std::move(t))
              .ok());
    }
    for (int i = 0; i < 6; ++i) {
      const std::string db = "d" + std::to_string(i);
      ASSERT_TRUE(catalog_
                      .PutTable(db, "dates",
                                Table(Schema({{"company", TypeKind::kString},
                                              {"date", TypeKind::kDate}})))
                      .ok());
      decoys_.push_back("create view " + db +
                        "::dates(date) as select D from I::stock T, "
                        "T.company C, T.date D");
    }
    system_ = Build();
  }

  std::unique_ptr<IntegrationSystem> Build() {
    auto system = std::make_unique<IntegrationSystem>(&catalog_, "I");
    for (const std::string& decoy : decoys_) {
      EXPECT_TRUE(system->RegisterSource(decoy).ok()) << decoy;
    }
    EXPECT_TRUE(system
                    ->RegisterSource(
                        "create view s2::C(date, price) as select D, P "
                        "from I::stock T, T.company C, T.date D, T.price P")
                    .ok());
    return system;
  }

  static std::string Query(const std::string& literal) {
    return "select C, D, P from I::stock T, T.company C, T.date D, "
           "T.price P where P > 120 and P < " +
           literal;
  }

  Catalog catalog_;
  std::vector<std::string> decoys_;
  std::unique_ptr<IntegrationSystem> system_;
};

TEST_F(VirtualExplainTest, ExplainNamesTheSourceTheAnswerReads) {
  const std::string q = Query("1000");
  auto explained = system_->ExplainOptimized(q);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  const std::string& text = explained.value();
  EXPECT_NE(text.find("source: s2::C\n"), std::string::npos) << text;
  EXPECT_NE(text.find("8 grounding(s) enumerated, 0 pruned, 8 run"),
            std::string::npos)
      << text;
  for (int i = 0; i < 6; ++i) {
    EXPECT_NE(text.find("DV004 [Thm. 5.2/5.4]: source d" + std::to_string(i) +
                        "::dates not usable"),
              std::string::npos)
        << text;
  }
  EXPECT_NE(text.find("source s2::C chosen"), std::string::npos) << text;
  // The plan scans s2's relations, never the empty I::stock.
  const size_t plan = text.find("== plan ==");
  ASSERT_NE(plan, std::string::npos) << text;
  EXPECT_EQ(text.find("stock", plan), std::string::npos) << text;
  EXPECT_NE(text.find("s2::co007", plan), std::string::npos) << text;

  auto answer = system_->AnswerGuarded(q, AnswerOptions{});
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer.value().plan_cached);
  EXPECT_GT(answer.value().table.num_rows(), 0u);
}

TEST_F(VirtualExplainTest, ExplainThenAnswerRunsTheCachedPlan) {
  const std::string q = Query("1000");
  const AnswerOptions bag = Semantics(/*multiset=*/true);
  ASSERT_TRUE(system_->ExplainOptimized(q, bag).ok());
  auto answer = system_->AnswerGuarded(q, bag);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer.value().plan_cached);
  EXPECT_EQ(system_->plan_cache_stats().misses, 1u);
  EXPECT_EQ(system_->plan_cache_stats().hits, 1u);
}

TEST_F(VirtualExplainTest, AnswerThenExplainAddsNoMiss) {
  const std::string q = Query("1000");
  auto answer = system_->AnswerGuarded(q, AnswerOptions{});
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  const PlanCacheStats before = system_->plan_cache_stats();
  ASSERT_TRUE(system_->ExplainOptimized(q).ok());
  EXPECT_EQ(system_->plan_cache_stats().misses, before.misses);
  EXPECT_EQ(system_->plan_cache_stats().hits, before.hits + 1);
}

TEST_F(VirtualExplainTest, ExplainTextIsTheSameOnMissHitAndFreshSystem) {
  const std::string q = Query("1000");
  auto miss = system_->ExplainOptimized(q);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  auto hit = system_->ExplainOptimized(q);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(system_->plan_cache_stats().hits, 1u);
  EXPECT_EQ(hit.value(), miss.value());
  // After a commit elsewhere in the catalog: a stale miss, the same text.
  ASSERT_TRUE(
      catalog_.PutTable("other", "t", Table(Schema({{"x", TypeKind::kInt}})))
          .ok());
  auto replanned = system_->ExplainOptimized(q);
  ASSERT_TRUE(replanned.ok());
  EXPECT_EQ(replanned.value(), miss.value());
  auto fresh = Build()->ExplainOptimized(q);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value(), miss.value());
}

TEST_F(VirtualExplainTest, TwoLiteralsGiveTheSameMaskedText) {
  auto mask = [](std::string text, const std::string& literal) {
    for (size_t pos = text.find(literal); pos != std::string::npos;
         pos = text.find(literal, pos + 1)) {
      text.replace(pos, literal.size(), "#");
    }
    return text;
  };
  auto a = system_->ExplainOptimized(Query("1000001"));
  auto b = system_->ExplainOptimized(Query("2000002"));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(mask(a.value(), "1000001"), mask(b.value(), "2000002"));
}

TEST_F(VirtualExplainTest, ExplainKeepsTheAnswersParseErrorAndDirectPlan) {
  const std::string bad = "select C from I::stock T, T.company C where";
  auto explained = system_->ExplainOptimized(bad);
  auto answered = system_->AnswerGuarded(bad, AnswerOptions{});
  ASSERT_EQ(explained.status().code(), StatusCode::kParseError);
  EXPECT_EQ(explained.status().ToString(), answered.status().ToString());

  // A higher-order query over s2 no source answers: the direct plan fans
  // out over s2, and only the answer caches it.
  const std::string fanout = "select R, T.date from s2 -> R, R T";
  auto direct = system_->ExplainOptimized(fanout);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_NE(direct.value().find("direct plan on I\n"), std::string::npos)
      << direct.value();
  EXPECT_NE(direct.value().find("fan-out, 8 grounding(s)"), std::string::npos)
      << direct.value();
  auto first = system_->AnswerGuarded(fanout, AnswerOptions{});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().plan_cached);
  ASSERT_TRUE(system_->ExplainOptimized(fanout).ok());
  EXPECT_TRUE(system_->AnswerGuarded(fanout, AnswerOptions{})
                  .value()
                  .plan_cached);
}

// ---- Database publishing (Fig. 7 / Fig. 9) ---------------------------------

class HotelPublishingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    HotelGenConfig cfg;
    cfg.num_hotels = 30;
    ASSERT_TRUE(InstallHotelDatabase(&catalog_, "hoteldb", cfg).ok());
    ASSERT_TRUE(InstallHprice(&catalog_, "hoteldb").ok());
    ASSERT_TRUE(InstallHotelwords(&catalog_, "hoteldb").ok());
    system_ = std::make_unique<IntegrationSystem>(&catalog_, "hoteldb");
  }

  Catalog catalog_;
  std::unique_ptr<IntegrationSystem> system_;
};

TEST_F(HotelPublishingTest, SchemaIndependentPriceQueryFig7) {
  // Q of Fig. 7: hotels with any room under $70 — expressed in plain SQL on
  // the hprice interface schema, no knowledge of pricing attributes needed.
  auto cheap = system_->engine()->ExecuteSql(
      "select distinct H from hoteldb::hprice T, T.price P, T.hid H "
      "where P < 70");
  ASSERT_TRUE(cheap.ok()) << cheap.status().ToString();
  // Cross-check against the explicit disjunction over hotelpricing columns.
  auto direct = system_->engine()->ExecuteSql(
      "select distinct T.hid from hoteldb::hotelpricing T "
      "where T.sgl_lo < 70 or T.sgl_hi < 70 or T.dbl_lo < 70 "
      "or T.dbl_hi < 70 or T.ste_lo < 70 or T.ste_hi < 70");
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_TRUE(cheap.value().SetEquals(direct.value()));
  EXPECT_GT(cheap.value().num_rows(), 0u);
}

TEST_F(HotelPublishingTest, HotelpricingIsDynamicViewOverHprice) {
  // Fig. 7's architecture: the original hotelpricing table is expressible
  // as a dynamic view over the hprice interface schema.
  QueryEngine engine(&catalog_, "hoteldb");
  Catalog rebuilt;
  auto created = ViewMaterializer::MaterializeSql(
      "create view out::hotelpricing(hid, R) as "
      "select H, P from hoteldb::hprice T, T.hid H, T.rmtype R, T.price P",
      &engine, &rebuilt, "out");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const Table* mine = rebuilt.ResolveTable("out", "hotelpricing").value();
  const Table* ref = catalog_.ResolveTable("hoteldb", "hotelpricing").value();
  // The pivot emits price columns in sorted label order; compare modulo
  // column order by projecting the rebuilt table into the reference layout.
  ASSERT_EQ(mine->schema().num_columns(), ref->schema().num_columns());
  std::vector<int> order;
  std::vector<std::string> names;
  for (const Column& c : ref->schema().columns()) {
    int idx = mine->schema().IndexOf(c.name);
    ASSERT_GE(idx, 0) << "rebuilt table lacks column " << c.name;
    order.push_back(idx);
    names.push_back(c.name);
  }
  auto reordered = ProjectColumns(*mine, order, names);
  ASSERT_TRUE(reordered.ok());
  EXPECT_TRUE(reordered.value().BagEquals(*ref));
}

TEST_F(HotelPublishingTest, KeywordSearchFig9) {
  ASSERT_TRUE(system_
                  ->RegisterIndex(
                      "create index keywords as inverted by given T.value "
                      "select T.hid, T.attribute from hoteldb::hotelwords T")
                  .ok());
  auto hits = system_->KeywordSearch("hotelwords", "Sofitel");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_GT(hits.value().num_rows(), 0u);
  // Every hit is a genuine Sofitel hotel (by chain, per the generator).
  auto sofitels = system_->engine()->ExecuteSql(
      "select H from hoteldb::hotel T, T.hid H, T.chain C "
      "where C = 'Sofitel'");
  ASSERT_TRUE(sofitels.ok());
  std::set<int64_t> ids;
  for (const Row& r : sofitels.value().rows()) ids.insert(r[0].as_int());
  for (const Row& r : hits.value().rows()) {
    EXPECT_TRUE(ids.count(r[0].as_int()) > 0);
  }
}

TEST_F(HotelPublishingTest, StructuredPlusUnstructuredQueryFig9) {
  // "Sofitel hotels in Athens": structured predicate (city) + unstructured
  // keyword, both expressed on hotelwords (the paper's Fig. 9 query Q).
  auto q = system_->engine()->ExecuteSql(
      "select H1 from hoteldb::hotelwords T1, hoteldb::hotelwords T2, "
      "T1.hid H1, T1.value V1, T2.hid H2, T2.attribute A2, T2.value V2 "
      "where H1 = H2 and contains(V1, 'Sofitel') and A2 = 'city' "
      "and V2 = 'Athens'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto expected = system_->engine()->ExecuteSql(
      "select H from hoteldb::hotel T, T.hid H, T.chain C, T.city Y "
      "where C = 'Sofitel' and Y = 'Athens'");
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(q.value().SetEquals(expected.value()))
      << q.value().ToString(10) << expected.value().ToString(10);
  EXPECT_GT(q.value().num_rows(), 0u);
}

/// An (id, attribute, value) interface table holding `rows`.
Table WordsTable(const std::vector<std::pair<int, std::string>>& rows) {
  Table t(Schema({{"hid", TypeKind::kInt},
                  {"attribute", TypeKind::kString},
                  {"value", TypeKind::kString}}));
  for (const auto& [id, value] : rows) {
    t.AppendRowUnchecked(
        {Value::Int(id), Value::String("name"), Value::String(value)});
  }
  return t;
}

/// KeywordSearch through the scan: a system with no index over `catalog`.
Table ScannedKeywordSearch(Catalog* catalog, const std::string& table,
                           const std::string& keyword) {
  IntegrationSystem unindexed(catalog, "I");
  auto hits = unindexed.KeywordSearch(table, keyword);
  EXPECT_TRUE(hits.ok()) << hits.status().ToString();
  return hits.ok() ? std::move(hits).value() : Table();
}

/// Same column names and types, same rows in the same order.
void ExpectSameTable(const Table& got, const Table& want) {
  ASSERT_EQ(got.schema().num_columns(), want.schema().num_columns());
  for (size_t c = 0; c < want.schema().num_columns(); ++c) {
    EXPECT_EQ(got.schema().column(c).name, want.schema().column(c).name);
    EXPECT_EQ(got.schema().column(c).type, want.schema().column(c).type);
  }
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (size_t r = 0; r < want.num_rows(); ++r) {
    EXPECT_EQ(got.row(r), want.row(r)) << "row " << r;
  }
}

TEST(KeywordSearchTest, IndexAnswersOnlyForItsOwnTable) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .PutTable("I", "hotelwords",
                            WordsTable({{1, "Sofitel Athens"}, {2, "Ritz"}}))
                  .ok());
  ASSERT_TRUE(
      catalog.PutTable("I", "carwords", WordsTable({{7, "Hilton shuttle"}}))
          .ok());
  IntegrationSystem system(&catalog, "I");
  ASSERT_TRUE(system
                  .RegisterIndex("create index words as inverted by given "
                                 "T.value select T.hid, T.attribute "
                                 "from I::hotelwords T")
                  .ok());
  // carwords has no index: the scan answers, not hotelwords' index.
  auto cars = system.KeywordSearch("carwords", "Hilton");
  ASSERT_TRUE(cars.ok()) << cars.status().ToString();
  ASSERT_EQ(cars.value().num_rows(), 1u);
  EXPECT_EQ(cars.value().row(0)[0].as_int(), 7);
  EXPECT_EQ(system.KeywordSearch("carwords", "Sofitel").value().num_rows(),
            0u);
  // hotelwords has one.
  auto hotels = system.KeywordSearch("hotelwords", "Sofitel");
  ASSERT_TRUE(hotels.ok());
  ASSERT_EQ(hotels.value().num_rows(), 1u);
  EXPECT_EQ(hotels.value().row(0)[0].as_int(), 1);
  // The index and the scan return the same table: whole rows, same columns.
  ExpectSameTable(hotels.value(),
                  ScannedKeywordSearch(&catalog, "hotelwords", "Sofitel"));
  ExpectSameTable(cars.value(),
                  ScannedKeywordSearch(&catalog, "carwords", "Hilton"));
}

TEST(KeywordSearchTest, IndexNotCoveringTheRowLeavesItToTheScan) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .PutTable("I", "hotelwords",
                            WordsTable({{1, "Sofitel Athens"}, {2, "Ritz"}}))
                  .ok());
  IntegrationSystem system(&catalog, "I");
  ASSERT_TRUE(system
                  .RegisterIndex("create index ids as inverted by given "
                                 "T.value select T.hid from I::hotelwords T")
                  .ok());
  auto hits = system.KeywordSearch("hotelwords", "Sofitel");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_EQ(hits.value().num_rows(), 1u);
  ExpectSameTable(hits.value(),
                  ScannedKeywordSearch(&catalog, "hotelwords", "Sofitel"));
}

TEST(KeywordSearchTest, StaleIndexFallsBackToTheScan) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .PutTable("I", "hotelwords",
                            WordsTable({{1, "Sofitel Athens"}, {2, "Ritz"}}))
                  .ok());
  IntegrationSystem system(&catalog, "I");
  ASSERT_TRUE(system
                  .RegisterIndex("create index words as inverted by given "
                                 "T.value select T.hid, T.attribute "
                                 "from I::hotelwords T")
                  .ok());
  EXPECT_EQ(system.KeywordSearch("hotelwords", "Hilton").value().num_rows(),
            0u);
  auto fresh = system.KeywordSearch("hotelwords", "Sofitel");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectSameTable(fresh.value(),
                  ScannedKeywordSearch(&catalog, "hotelwords", "Sofitel"));
  // A commit adds a Hilton row after the build: the index no longer covers
  // the table, so the scan answers.
  ASSERT_TRUE(catalog
                  .PutTable("I", "hotelwords",
                            WordsTable({{1, "Sofitel Athens"},
                                        {2, "Ritz"},
                                        {3, "Hilton Park"}}))
                  .ok());
  auto hits = system.KeywordSearch("hotelwords", "Hilton");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_EQ(hits.value().num_rows(), 1u);
  EXPECT_EQ(hits.value().row(0)[0].as_int(), 3);
  // The stale index's answer had the scan's columns too.
  ExpectSameTable(fresh.value(),
                  ScannedKeywordSearch(&catalog, "hotelwords", "Sofitel"));
}

// ---- Physical data independence (Fig. 8) ------------------------------------

class TicketSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TicketsGenConfig cfg;
    ASSERT_TRUE(InstallTicketsIntegration(&catalog_, "I", cfg).ok());
    ASSERT_TRUE(InstallTicketJurisdictions(&catalog_, "tix", cfg).ok());
    system_ = std::make_unique<IntegrationSystem>(&catalog_, "I");
  }

  Catalog catalog_;
  std::unique_ptr<IntegrationSystem> system_;
};

TEST_F(TicketSystemTest, LegacyJurisdictionsAnswerIntegrationQueries) {
  // Fig. 8's View V: the per-jurisdiction tables are a dynamic view over
  // tickets(state, tnum, lic, infr).
  ASSERT_TRUE(system_
                  ->RegisterSource(
                      "create view tix::S(tnum, lic, infr) as "
                      "select N, L, F from I::tickets T, T.state S, "
                      "T.tnum N, T.lic L, T.infr F")
                  .ok());
  const std::string q =
      "select S, N from I::tickets T, T.state S, T.tnum N, T.infr F "
      "where F = 'dui'";
  auto answer = system_->AnswerGuarded(q, Semantics(/*multiset=*/true));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  QueryEngine direct(&catalog_, "I");
  auto expected = direct.ExecuteSql(q);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(answer.value().table.BagEquals(expected.value()));
}

TEST_F(TicketSystemTest, IndexRegistrationFeedsOptimizer) {
  ASSERT_TRUE(system_
                  ->RegisterIndex(
                      "create index ticketInfr as btree by given T.infr "
                      "select T.infr, T.state, T.tnum, T.lic "
                      "from I::tickets T")
                  .ok());
  const std::string q =
      "select S, N from I::tickets T, T.state S, T.tnum N, T.infr F "
      "where F = 'dui'";
  Optimizer optimizer(system_->catalog(), system_->integration_db());
  for (const auto& index : system_->indexes()) {
    EXPECT_TRUE(optimizer.RegisterIndex(index)) << index->definition();
  }
  auto plan = optimizer.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan.value().uses_indexes) << plan.value().Describe();
  auto result = optimizer.Execute(plan.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  QueryEngine direct(&catalog_, "I");
  auto expected = direct.ExecuteSql(q);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(result.value().BagEquals(expected.value()));
}

}  // namespace
}  // namespace dynview
