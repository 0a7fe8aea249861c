#include "federation.h"

#include <algorithm>
#include <cstdio>

#include "bench_util.h"

namespace perfbench {

using dynview::Row;
using dynview::Schema;
using dynview::Table;
using dynview::TypeKind;
using dynview::Value;

namespace {

Schema StockSchema() {
  return Schema({{"company", TypeKind::kString},
                 {"date", TypeKind::kDate},
                 {"price", TypeKind::kInt}});
}

Table StockTable(const StockData& data) {
  Table t(StockSchema());
  for (const Row& r : data.rows) t.AppendRowUnchecked(r);
  return t;
}

}  // namespace

StockData GenerateStock(uint64_t seed, int companies, int dates) {
  StockData data;
  data.seed = seed;
  data.dates = dates;
  data.first_date = dynview::Date::FromYmd(1998, 1, 1).value();
  char name[16];
  for (int c = 0; c < companies; ++c) {
    std::snprintf(name, sizeof(name), "co%03d", c);
    data.companies.push_back(name);
  }
  Rng rng(seed);
  for (int c = 0; c < companies; ++c) {
    for (int d = 0; d < dates; ++d) {
      data.rows.push_back({Value::String(data.companies[c]),
                           Value::MakeDate(data.first_date.AddDays(d)),
                           Value::Int(rng.Uniform(50, 400))});
    }
  }
  return data;
}

int64_t PriceAtRank(const StockData& data, double q) {
  std::vector<int64_t> prices;
  prices.reserve(data.rows.size());
  for (const Row& r : data.rows) prices.push_back(r[2].as_int());
  std::sort(prices.begin(), prices.end());
  size_t i = static_cast<size_t>(q * static_cast<double>(prices.size()));
  return prices[std::min(i, prices.size() - 1)];
}

Row DeltaRow(const StockData& data, uint64_t i) {
  const uint64_t n = data.companies.size();
  Rng rng(Mix64(data.seed ^ (i * 0x2545f4914f6cdd1dULL)));
  return {Value::String(data.companies[i % n]),
          Value::MakeDate(data.first_date.AddDays(
              data.dates + static_cast<int32_t>(i / n))),
          Value::Int(rng.Uniform(50, 400))};
}

dynview::Result<Federation> BuildFederation(const StockData& data,
                                            const FederationSpec& spec) {
  Federation fed;
  fed.catalog = std::make_unique<dynview::Catalog>();
  dynview::Catalog* catalog = fed.catalog.get();
  if (spec.i_holds_data) {
    DV_RETURN_IF_ERROR(catalog->PutTable("I", "stock", StockTable(data)));
  } else {
    DV_RETURN_IF_ERROR(catalog->PutTable("I", "stock", Table(StockSchema())));
    const size_t dates = static_cast<size_t>(data.dates);
    for (size_t c = 0; c < data.companies.size(); ++c) {
      Table t(Schema({{"date", TypeKind::kDate}, {"price", TypeKind::kInt}}));
      for (size_t d = 0; d < dates; ++d) {
        const Row& r = data.rows[c * dates + d];
        t.AppendRowUnchecked({r[1], r[2]});
      }
      DV_RETURN_IF_ERROR(catalog->PutTable("s2", data.companies[c], std::move(t)));
    }
  }
  dynview::IntegrationOptions options;
  options.exec.num_threads = spec.num_threads;
  fed.system =
      std::make_unique<dynview::IntegrationSystem>(catalog, "I", options);
  for (int i = 0; i < spec.decoys; ++i) {
    // Not "d" + std::to_string(i): GCC 12 flags that with a false -Wrestrict.
    std::string db = std::to_string(i);
    db.insert(0, 1, 'd');
    DV_RETURN_IF_ERROR(catalog->PutTable(
        db, "dates",
        Table(Schema({{"company", TypeKind::kString},
                      {"date", TypeKind::kDate}}))));
    std::string view = "create view ";
    view += db;
    view += "::dates(date) as select D from I::stock T, T.company C, T.date D";
    DV_RETURN_IF_ERROR(fed.system->RegisterSource(view).status());
  }
  fed.s2_index = static_cast<size_t>(spec.decoys);
  if (spec.i_holds_data) {
    DV_RETURN_IF_ERROR(fed.system->RegisterAndMaterializeSource(kS2View).status());
  } else {
    DV_RETURN_IF_ERROR(fed.system->RegisterSource(kS2View).status());
  }
  return fed;
}

Reference::Reference(const StockData& data) {
  (void)!catalog_.PutTable("I", "stock", StockTable(data)).ok();
  dynview::ExecConfig exec;
  exec.num_threads = 1;
  engine_ = std::make_unique<dynview::QueryEngine>(&catalog_, "I", exec);
}

dynview::Result<Table> Reference::Evaluate(const std::string& sql) {
  return engine_->ExecuteSql(sql);
}

}  // namespace perfbench
