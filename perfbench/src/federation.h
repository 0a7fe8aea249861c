// Inputs of every workload: seeded stock facts, the Fig. 6 federation built
// from them through the public IntegrationSystem API, and the reference
// that answers the same queries by direct evaluation on I.

#ifndef PERFBENCH_FEDERATION_H_
#define PERFBENCH_FEDERATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/date.h"
#include "engine/query_engine.h"
#include "integration/integration.h"
#include "relational/catalog.h"

namespace perfbench {

/// Facts of I::stock(company, date, price): `companies` × `dates` rows,
/// prices uniform in [50, 400) from the seed.
struct StockData {
  uint64_t seed = 0;
  std::vector<std::string> companies;
  int dates = 0;
  dynview::Date first_date;
  std::vector<dynview::Row> rows;
};

StockData GenerateStock(uint64_t seed, int companies, int dates);

/// The price at quantile `q` of the generated prices. Thresholds are picked
/// by rank, so every seed selects about the same share of rows and the work
/// per query does not depend on the seed.
int64_t PriceAtRank(const StockData& data, double q);

/// The i-th one-row delta of the writer: a fact for an existing company on
/// a date after the generated range, so it never collides with a base row.
dynview::Row DeltaRow(const StockData& data, uint64_t i);

/// The s2 source of Fig. 6: one relation per company, a dynamic view over I.
inline constexpr char kS2View[] =
    "create view s2::C(date, price) as "
    "select D, P from I::stock T, T.company C, T.date D, T.price P";

struct FederationSpec {
  /// Sources registered before s2 that cannot answer a price query (they
  /// drop the price attribute): Alg. 5.1 probes and rejects each one.
  int decoys = 0;
  /// True: I::stock holds the facts and s2 is materialized from it (the
  /// warehouse-loading direction). False: I is virtual and the facts live
  /// only under s2 (the legacy-integration direction).
  bool i_holds_data = false;
  /// ExecConfig::num_threads, always explicit.
  size_t num_threads = 1;
};

struct Federation {
  std::unique_ptr<dynview::Catalog> catalog;  // Outlives `system`.
  std::unique_ptr<dynview::IntegrationSystem> system;
  size_t s2_index = 0;  // Registration index of the s2 source.
};

dynview::Result<Federation> BuildFederation(const StockData& data,
                                            const FederationSpec& spec);

/// Direct evaluation on I: a private catalog whose I::stock holds every
/// fact, queried through a serial QueryEngine with no sources at all.
class Reference {
 public:
  explicit Reference(const StockData& data);
  dynview::Result<dynview::Table> Evaluate(const std::string& sql);

 private:
  dynview::Catalog catalog_;
  std::unique_ptr<dynview::QueryEngine> engine_;
};

}  // namespace perfbench

#endif  // PERFBENCH_FEDERATION_H_
