// The static diagnostics pass (src/analyze): check registry, the DV001..DV007
// analyses over the stock workload, DefineView gating, warning surfacing and
// dedup on AnswerResult, LintSources' DV007, and the Explain annotations.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analyze/analyzer.h"
#include "integration/integration.h"
#include "observe/metrics.h"
#include "relational/catalog.h"
#include "schemasql/view_materializer.h"
#include "workload/stock_data.h"

namespace dynview {
namespace {

constexpr char kRelViewSql[] =
    "create view db1::C(date, price) as "
    "select D, P from db0::stock T, T.company C, T.date D, T.price P";

constexpr char kPivotViewSql[] =
    "create view db2::nyse(date, C) as "
    "select D, P from db0::stock T, T.exch E, T.company C, "
    "T.date D, T.price P where E = 'nyse'";

constexpr char kAggViewSql[] =
    "create view E::daily(date, C) as "
    "select D, avg(P) from db0::stock T, T.exch E, T.date D, T.price P, "
    "T.company C group by E, D, C";

// Def. 3.1 violation: a relation variable in the body.
constexpr char kHigherOrderBodySql[] =
    "create view out::folded(company, date, price) as "
    "select R, D, P from db0 -> R, R T, T.date D, T.price P";

class AnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StockGenConfig cfg;
    cfg.num_companies = 4;
    cfg.num_dates = 6;
    ASSERT_TRUE(InstallDb0(&catalog_, "db0", cfg).ok());
    snap_ = catalog_.Snapshot();
  }

  std::vector<std::string> Codes(const std::vector<Diagnostic>& diags) {
    std::vector<std::string> codes;
    for (const Diagnostic& d : diags) codes.push_back(d.code);
    return codes;
  }

  /// Materializes the pivot view, then defines it over that materialization
  /// without a fence. An unfenced source never competes with the direct
  /// plan on db0, so it answers every query it can.
  Result<DefinedView> DefinePivotOverItsMaterialization(
      IntegrationSystem* system) {
    DV_RETURN_IF_ERROR(ViewMaterializer::MaterializeSql(
                           kPivotViewSql, system->engine(), &catalog_, "db0")
                           .status());
    return system->DefineView(kPivotViewSql);
  }

  bool HasCode(const std::vector<Diagnostic>& diags, const std::string& code) {
    return std::any_of(
        diags.begin(), diags.end(),
        [&](const Diagnostic& d) { return d.code == code; });
  }

  Catalog catalog_;
  std::shared_ptr<const CatalogSnapshot> snap_;
};

TEST_F(AnalyzeTest, CheckCatalogListsAllChecksWithAnchors) {
  const auto& checks = CheckCatalog();
  ASSERT_EQ(checks.size(), 11u);
  std::set<std::string> codes;
  for (const CheckInfo& c : checks) {
    codes.insert(c.code);
    EXPECT_STRNE(c.anchor, "") << c.code;
    EXPECT_STRNE(c.summary, "") << c.code;
  }
  EXPECT_EQ(codes.size(), 11u) << "codes must be distinct";
  EXPECT_TRUE(codes.count("DV001") && codes.count("DV007"));
  EXPECT_TRUE(codes.count("DV100") && codes.count("DV103"));
}

TEST_F(AnalyzeTest, SpanOfWordMatchesWholeWordsCaseInsensitively) {
  // 'P' must not match inside 'price'.
  SourceSpan s = SpanOfWord("select P from t, t.price P", "P");
  EXPECT_EQ(s.offset, 7u);
  EXPECT_EQ(s.length, 1u);
  SourceSpan miss = SpanOfWord("select price from t", "P");
  EXPECT_EQ(miss.length, 0u);
  SourceSpan ci = SpanOfWord("SELECT D FROM t", "d");
  EXPECT_EQ(ci.offset, 7u);
}

TEST_F(AnalyzeTest, SortDiagnosticsIsDeterministic) {
  std::vector<Diagnostic> a;
  Diagnostic d1{"DV005", Severity::kWarning, {10, 2}, "m1", "", "", 0};
  Diagnostic d2{"DV001", Severity::kError, {5, 1}, "m2", "", "", 0};
  Diagnostic d3{"DV001", Severity::kWarning, {2, 1}, "m3", "", "", 1};
  a = {d1, d2, d3};
  std::vector<Diagnostic> b = {d3, d1, d2};
  SortDiagnostics(&a);
  SortDiagnostics(&b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].code, b[i].code);
    EXPECT_EQ(a[i].message, b[i].message);
  }
  EXPECT_EQ(a[0].message, "m2");  // statement 0, DV001 before DV005.
  EXPECT_EQ(a[2].statement, 1);
}

TEST_F(AnalyzeTest, Dv000SyntaxError) {
  Analyzer analyzer(snap_.get(), "db0");
  auto diags = analyzer.AnalyzeStatement("selectt nonsense");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "DV000");
  EXPECT_EQ(diags[0].severity, Severity::kError);
}

TEST_F(AnalyzeTest, Dv001UnusedVariableWarning) {
  Analyzer analyzer(snap_.get(), "db0");
  auto diags = analyzer.AnalyzeSelect(
      "select D from db0::stock T, T.date D, T.price P");
  ASSERT_TRUE(HasCode(diags, "DV001")) << RenderDiagnosticsText(diags);
  EXPECT_FALSE(HasErrors(diags));
  // The span lands on the declared-but-unused variable.
  const Diagnostic& d = diags[0];
  EXPECT_EQ(d.span.length, 1u);
}

TEST_F(AnalyzeTest, Dv001BindFailureIsError) {
  Analyzer analyzer(snap_.get(), "db0");
  auto diags = analyzer.AnalyzeSelect("select X from db0::stock T");
  ASSERT_TRUE(HasCode(diags, "DV001")) << RenderDiagnosticsText(diags);
  EXPECT_TRUE(HasErrors(diags));
}

TEST_F(AnalyzeTest, Dv002HigherOrderViewBodyIsError) {
  Analyzer analyzer(snap_.get(), "db0");
  auto diags = analyzer.AnalyzeCreateView(kHigherOrderBodySql);
  ASSERT_TRUE(HasCode(diags, "DV002")) << RenderDiagnosticsText(diags);
  EXPECT_TRUE(HasErrors(diags));
  EXPECT_EQ(diags[0].anchor, "Def. 3.1");
}

TEST_F(AnalyzeTest, Dv003PivotWarnsAndNamesAggregateFix) {
  Analyzer analyzer(snap_.get(), "db0");
  auto diags = analyzer.AnalyzeCreateView(kPivotViewSql);
  ASSERT_TRUE(HasCode(diags, "DV003")) << RenderDiagnosticsText(diags);
  EXPECT_FALSE(HasErrors(diags));
  for (const Diagnostic& d : diags) {
    if (d.code != "DV003") continue;
    EXPECT_NE(d.fix_hint.find("aggregate"), std::string::npos)
        << "the Fig. 14 fix must be named";
  }
  // The Fig. 14 aggregate view itself is exempt: the aggregate carries the
  // multiplicity information.
  auto agg = analyzer.AnalyzeCreateView(kAggViewSql);
  EXPECT_FALSE(HasCode(agg, "DV003")) << RenderDiagnosticsText(agg);
}

TEST_F(AnalyzeTest, Dv004QuerySideNoUsableSource) {
  Analyzer analyzer(snap_.get(), "db0");
  std::vector<std::shared_ptr<ViewDefinition>> sources;
  auto vd = ViewDefinition::FromSql(kRelViewSql, *snap_, "db0");
  ASSERT_TRUE(vd.ok());
  sources.push_back(std::make_shared<ViewDefinition>(std::move(vd).value()));
  AnalyzeOptions opts;
  opts.sources = &sources;
  // cotype is not covered by the registered source.
  auto diags = analyzer.AnalyzeSelect(
      "select T.type from db0::cotype T where T.company = 'co0'", opts);
  EXPECT_TRUE(HasCode(diags, "DV004")) << RenderDiagnosticsText(diags);
  EXPECT_FALSE(HasErrors(diags));
}

TEST_F(AnalyzeTest, Dv005UnsatisfiablePredicate) {
  Analyzer analyzer(snap_.get(), "db0");
  auto diags = analyzer.AnalyzeSelect(
      "select T.date from db0::stock T where T.price > 10 and T.price < 5");
  EXPECT_TRUE(HasCode(diags, "DV005")) << RenderDiagnosticsText(diags);
  EXPECT_FALSE(HasErrors(diags));
}

TEST_F(AnalyzeTest, Dv006MissingTableAndDeadBranch) {
  Analyzer analyzer(snap_.get(), "db0");
  auto missing = analyzer.AnalyzeSelect("select T.date from db0::nosuch T");
  EXPECT_TRUE(HasCode(missing, "DV006")) << RenderDiagnosticsText(missing);

  auto dead = analyzer.AnalyzeSelect(
      "select T.date from db0::stock T union "
      "select T.date from db0::stock T where T.price > 3");
  EXPECT_TRUE(HasCode(dead, "DV006")) << RenderDiagnosticsText(dead);

  // UNION ALL keeps duplicates: subsumption does not make the branch dead.
  auto alive = analyzer.AnalyzeSelect(
      "select T.date from db0::stock T union all "
      "select T.date from db0::stock T where T.price > 3");
  EXPECT_FALSE(HasCode(alive, "DV006")) << RenderDiagnosticsText(alive);
}

TEST_F(AnalyzeTest, DefineViewRejectsDv002AndAcceptsSeedViews) {
  IntegrationSystem system(&catalog_, "db0");
  auto rejected = system.DefineView(kHigherOrderBodySql);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("DV002"), std::string::npos)
      << rejected.status().message();
  EXPECT_TRUE(system.sources().empty());

  // Every seed workload view is admitted with zero errors.
  for (const char* sql : {kRelViewSql, kPivotViewSql, kAggViewSql}) {
    auto defined = system.DefineView(sql);
    ASSERT_TRUE(defined.ok()) << defined.status().message();
    EXPECT_FALSE(HasErrors(defined.value().diagnostics))
        << RenderDiagnosticsText(defined.value().diagnostics);
  }
  EXPECT_EQ(system.sources().size(), 3u);
  // The pivot view carries its DV003 warning out of DefineView.
  auto pivot = system.DefineView(
      "create view db3::tse(date, C) as "
      "select D, P from db0::stock T, T.exch E, T.company C, "
      "T.date D, T.price P where E = 'tse'");
  ASSERT_TRUE(pivot.ok());
  EXPECT_TRUE(HasCode(pivot.value().diagnostics, "DV003"));
}

TEST_F(AnalyzeTest, AnalyzeMetricsTally) {
  IntegrationSystem system(&catalog_, "db0");
  ASSERT_TRUE(system.DefineView(kPivotViewSql).ok());
  const MetricsRegistry& m = system.metrics();
  EXPECT_GT(m.Value(counters::kAnalyzeChecksRun), 0u);
  EXPECT_GT(m.Value(counters::kAnalyzeDiagnostics), 0u);
  EXPECT_GT(m.Value(counters::kAnalyzeWarnings), 0u);
  EXPECT_EQ(m.Value(counters::kAnalyzeErrors), 0u);
  ASSERT_FALSE(system.DefineView(kHigherOrderBodySql).ok());
  EXPECT_GT(m.Value(counters::kAnalyzeErrors), 0u);
}

TEST_F(AnalyzeTest, DefineViewWarningsSurfaceOnAnswerWarnings) {
  IntegrationSystem system(&catalog_, "db0");
  auto defined = DefinePivotOverItsMaterialization(&system);
  ASSERT_TRUE(defined.ok()) << defined.status().message();
  ASSERT_TRUE(HasCode(defined.value().diagnostics, "DV003"));

  // A duplicate-insensitive query the pivot view answers: its DV003 hazard
  // travels with the result.
  auto answered = system.AnswerGuarded(
      "select D, max(P) from db0::stock T, T.date D, T.price P, T.exch E "
      "where E = 'nyse' group by D",
      AnswerOptions{});
  ASSERT_TRUE(answered.ok()) << answered.status().message();
  bool saw_dv003 = false;
  for (const SourceWarning& w : answered.value().warnings) {
    if (w.status.message().find("DV003") != std::string::npos) {
      saw_dv003 = true;
      EXPECT_EQ(w.source, "db2::nyse");
      EXPECT_EQ(w.count, 1u);
    }
  }
  EXPECT_TRUE(saw_dv003);

  // Re-running is idempotent: dedup keeps a single DV003 entry.
  auto again = system.AnswerGuarded(
      "select D, max(P) from db0::stock T, T.date D, T.price P, T.exch E "
      "where E = 'nyse' group by D",
      AnswerOptions{});
  ASSERT_TRUE(again.ok());
  size_t dv003_entries = 0;
  for (const SourceWarning& w : again.value().warnings) {
    if (w.status.message().find("DV003") != std::string::npos) ++dv003_entries;
  }
  EXPECT_EQ(dv003_entries, 1u);
}

TEST_F(AnalyzeTest, ExplainCarriesTheChosenSourcesWarnings) {
  IntegrationSystem system(&catalog_, "db0");
  ASSERT_TRUE(DefinePivotOverItsMaterialization(&system).ok());
  auto explained = system.ExplainOptimized(
      "select D, max(P) from db0::stock T, T.date D, T.price P, T.exch E "
      "where E = 'nyse' group by D");
  ASSERT_TRUE(explained.ok()) << explained.status().message();
  const std::string& text = explained.value();
  const size_t chosen = text.find("source db2::nyse chosen\n");
  ASSERT_NE(chosen, std::string::npos) << text;
  EXPECT_NE(text.find("warning DV003 [", chosen), std::string::npos) << text;
}

TEST_F(AnalyzeTest, DedupSourceWarningsMergesWithCounts) {
  std::vector<SourceWarning> w;
  w.push_back({"s1", Status::Unavailable("down"), 1});
  w.push_back({"s2", Status::Unavailable("down"), 1});
  w.push_back({"s1", Status::Unavailable("down"), 2});
  w.push_back({"s1", Status::NotFound("gone"), 1});
  DedupSourceWarnings(&w);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0].source, "s1");
  EXPECT_EQ(w[0].count, 3u);  // 1 + 2 merged, order preserved.
  EXPECT_EQ(w[1].source, "s2");
  EXPECT_EQ(w[2].status.message(), "gone");
}

TEST_F(AnalyzeTest, LintSourcesReportsDv007AfterBaseCommit) {
  IntegrationSystem system(&catalog_, "db0");
  DefineViewOptions opts;
  opts.materialize = true;
  ASSERT_TRUE(system.DefineView(kRelViewSql, opts).ok());
  EXPECT_FALSE(HasCode(system.LintSources(), "DV007"));

  // A commit to db0 moves the base past the fence.
  StockGenConfig cfg;
  cfg.num_companies = 2;
  cfg.num_dates = 2;
  ASSERT_TRUE(catalog_.PutTable("db0", "stock", GenerateStockDb0(cfg)).ok());
  auto diags = system.LintSources();
  ASSERT_TRUE(HasCode(diags, "DV007")) << RenderDiagnosticsText(diags);
  for (const Diagnostic& d : diags) {
    if (d.code != "DV007") continue;
    EXPECT_NE(d.message.find("db0"), std::string::npos);
    EXPECT_EQ(d.severity, Severity::kWarning);
  }
}

TEST_F(AnalyzeTest, ExplainAnnotatesSkippedAccessPaths) {
  IntegrationSystem system(&catalog_, "db0");
  DefineViewOptions opts;
  opts.materialize = true;
  ASSERT_TRUE(system.DefineView(kRelViewSql, opts).ok());
  auto explained = system.ExplainOptimized(
      "select T.date, T.price from db0::stock T where T.company = 'co0'");
  ASSERT_TRUE(explained.ok()) << explained.status().message();
  EXPECT_NE(explained.value().find("== analysis =="), std::string::npos)
      << explained.value();

  // After a base commit the view is fenced: Explain says so, citing DV007.
  StockGenConfig cfg;
  cfg.num_companies = 2;
  cfg.num_dates = 2;
  ASSERT_TRUE(catalog_.PutTable("db0", "stock", GenerateStockDb0(cfg)).ok());
  auto fenced = system.ExplainOptimized(
      "select T.date, T.price from db0::stock T where T.company = 'co0'");
  ASSERT_TRUE(fenced.ok());
  EXPECT_NE(fenced.value().find("DV007"), std::string::npos)
      << fenced.value();
}

}  // namespace
}  // namespace dynview
