#include "workload/tickets_data.h"

#include <cstdio>

#include "restructure/restructure.h"

namespace dynview {

namespace {

uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const char* kJurisdictions[] = {"queens",  "bronx",   "monroe", "albany",
                                "suffolk", "niagara", "erie",   "kings"};
const char* kInfractions[] = {"dui",      "speeding", "parking",
                              "redlight", "noseat",   "phone"};

/// The integration-layout table, from which both layouts derive.
Table GenerateIntegration(const TicketsGenConfig& config) {
  Table t(Schema({{"state", TypeKind::kString},
                  {"tnum", TypeKind::kInt},
                  {"lic", TypeKind::kString},
                  {"infr", TypeKind::kString}}));
  uint64_t state = config.seed;
  int64_t tnum = 1000;
  for (int j = 0; j < config.num_jurisdictions; ++j) {
    std::string name = JurisdictionName(j);
    for (int k = 0; k < config.tickets_per_jurisdiction; ++k) {
      int driver = static_cast<int>(NextRandom(&state) %
                                    static_cast<uint64_t>(config.num_drivers));
      bool dui = static_cast<int>(NextRandom(&state) % 100) <
                 config.dui_percent;
      std::string infr =
          dui ? "dui"
              : kInfractions[1 + NextRandom(&state) % 5];  // Non-dui kinds.
      t.AppendRowUnchecked({Value::String(name), Value::Int(tnum++),
                            Value::String(LicenseName(driver)),
                            Value::String(infr)});
    }
  }
  return t;
}

}  // namespace

std::string JurisdictionName(int i) {
  std::string base = kJurisdictions[i % 8];
  if (i < 8) return base;
  return base + std::to_string(i / 8);
}

std::string LicenseName(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "lic%04d", i);
  return buf;
}

Status InstallTicketJurisdictions(Catalog* catalog, const std::string& db,
                                  const TicketsGenConfig& config) {
  Table integration = GenerateIntegration(config);
  DV_ASSIGN_OR_RETURN(auto parts, PartitionByColumn(integration, "state"));
  // One commit: readers see every jurisdiction table or none.
  return catalog
      ->Mutate([&](CatalogTxn& txn) {
        Database* d = txn.GetOrCreateDatabase(db);
        for (auto& [name, table] : parts) d->PutTable(name, std::move(table));
        return Status::OK();
      })
      .status();
}

Status InstallTicketsIntegration(Catalog* catalog, const std::string& db,
                                 const TicketsGenConfig& config) {
  return catalog->PutTable(db, "tickets", GenerateIntegration(config));
}

}  // namespace dynview
