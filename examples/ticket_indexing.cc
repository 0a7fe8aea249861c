// Physical data independence (Secs. 1.1.3/3.3, Figs. 4/8): view-described
// indexes over data-dependent unions of relations, and their use as
// primitive access paths in the Sec. 6 optimizer.
//
//   * the ticketInfr B+-tree spans ALL jurisdiction relations — the index
//     SQL-view-described architectures (GMAP) cannot express,
//   * the dui data-fusion view materializes a self-join over the union,
//   * the optimizer picks index probes over scans and reports the plans.

#include <cstdio>
#include <string>

#include "index/view_index.h"
#include "integration/integration.h"
#include "optimizer/optimizer.h"
#include "workload/tickets_data.h"

using namespace dynview;

int main() {
  Catalog catalog;
  TicketsGenConfig config;
  config.num_jurisdictions = 5;
  config.tickets_per_jurisdiction = 200;
  InstallTicketJurisdictions(&catalog, "tix", config);
  InstallTicketsIntegration(&catalog, "I", config);
  QueryEngine engine(&catalog, "I");

  std::printf("jurisdiction relations:");
  for (const std::string& name :
       catalog.GetDatabase("tix").value()->TableNames()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n\n");

  // --- Fig. 4: a B+-tree over all jurisdictions. -----------------------------
  auto infr_index = ViewIndex::BuildSql(
      "create index ticketInfr as btree by given T.infr "
      "select R, T.tnum, T.lic from tix -> R, R T",
      &engine);
  if (!infr_index.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 infr_index.status().ToString().c_str());
    return 1;
  }
  std::printf("ticketInfr: %s\n", infr_index.value().definition().c_str());
  auto dui_tickets = infr_index.value().Probe(Value::String("dui"));
  std::printf("dui tickets across all jurisdictions: %zu\n%s\n",
              dui_tickets.value().num_rows(),
              dui_tickets.value().ToString(6).c_str());

  // --- Fig. 4: the dui fusion view. -----------------------------------------
  auto dui_view = ViewIndex::BuildSql(
      "create index dui as btree by given T1.lic "
      "select T2.infr from I::tickets T1, I::tickets T2 "
      "where T1.lic = T2.lic and T1.infr = 'dui' and T1.tnum <> T2.tnum",
      &engine);
  if (dui_view.ok()) {
    std::printf("dui fusion view materialized: %zu (lic, infr) entries\n\n",
                dui_view.value().contents().num_rows());
  }

  // --- Fig. 8 + Sec. 6: optimized evaluation on the integration. ------------
  IntegrationSystem system(&catalog, "I");
  system
      .RegisterSource(
          "create view tix::S(tnum, lic, infr) as "
          "select N, L, F from I::tickets T, T.state S, T.tnum N, "
          "T.lic L, T.infr F")
      .value();
  system
      .RegisterIndex(
          "create index byInfr as btree by given T.infr "
          "select T.infr, T.state, T.tnum, T.lic from I::tickets T")
      .value();

  // The Sec. 6 optimizer, offered every registered source and index.
  Optimizer optimizer(system.catalog(), system.integration_db());
  for (const auto& source : system.sources()) optimizer.RegisterView(source);
  for (const auto& index : system.indexes()) optimizer.RegisterIndex(index);

  const std::string q =
      "select S, N, L from I::tickets T, T.state S, T.tnum N, T.lic L, "
      "T.infr F where F = 'dui'";
  auto with = optimizer.Plan(q);
  auto without = optimizer.PlanBaseline(q);
  if (!with.ok() || !without.ok()) {
    std::fprintf(stderr, "planning failed\n");
    return 1;
  }
  std::printf("baseline plan:\n%s\n", without.value().Describe().c_str());
  std::printf("plan with view-described index:\n%s\n",
              with.value().Describe().c_str());
  std::printf("estimated cost %0.0f -> %0.0f\n\n", without.value().est_cost,
              with.value().est_cost);
  auto a = optimizer.Execute(with.value());
  auto b = optimizer.Execute(without.value());
  std::printf("both plans agree?  %s  (%zu rows)\n",
              a.value().BagEquals(b.value()) ? "yes" : "NO",
              a.value().num_rows());

  // The legacy sources can answer the same query through Alg. 5.1.
  AnswerOptions bag;
  bag.multiset = true;
  auto answer = system.AnswerGuarded(q, bag);
  std::printf("legacy-source rewriting agrees?  %s\n",
              answer.value().table.BagEquals(a.value()) ? "yes" : "NO");
  return 0;
}
