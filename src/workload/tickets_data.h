#ifndef DYNVIEW_WORKLOAD_TICKETS_DATA_H_
#define DYNVIEW_WORKLOAD_TICKETS_DATA_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "relational/catalog.h"

namespace dynview {

/// Deterministic generator for the traffic-ticket example (Figs. 4 and 8):
/// per-jurisdiction relations whose *names* are jurisdiction names, plus the
/// first-order integration layout tickets(state, tnum, lic, infr).
///
/// Each jurisdiction holds the tickets it issued; some drivers collect
/// tickets across jurisdictions, which makes the Fig. 4 data-fusion
/// self-join (the `dui` view) non-trivial.
struct TicketsGenConfig {
  int num_jurisdictions = 4;
  int tickets_per_jurisdiction = 50;
  int num_drivers = 40;  // Licenses shared across jurisdictions.
  uint64_t seed = 13;
  /// Fraction (percent) of tickets that are 'dui' infractions.
  int dui_percent = 10;
};

std::string JurisdictionName(int i);  // "queens", "bronx", "monroe", ...
std::string LicenseName(int i);       // "lic0042"

/// Installs one relation per jurisdiction into `db` (the Fig. 4 layout).
Status InstallTicketJurisdictions(Catalog* catalog, const std::string& db,
                                  const TicketsGenConfig& config);

/// Installs the integration layout tickets(state, tnum, lic, infr) into
/// `db`, consistent with InstallTicketJurisdictions for the same config.
Status InstallTicketsIntegration(Catalog* catalog, const std::string& db,
                                 const TicketsGenConfig& config);

}  // namespace dynview

#endif  // DYNVIEW_WORKLOAD_TICKETS_DATA_H_
