#include "faults/scenarios.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace tl::faults {

FaultEvent sector_outage(topology::SectorId sector, util::TimestampMs start,
                         util::TimestampMs end) {
  FaultEvent e;
  e.kind = FaultKind::kSectorOutage;
  e.sector = sector;
  e.start = start;
  e.end = end;
  return e;
}

FaultEvent sector_degradation(topology::SectorId sector, util::TimestampMs start,
                              util::TimestampMs end, double hof_multiplier) {
  FaultEvent e;
  e.kind = FaultKind::kSectorDegraded;
  e.sector = sector;
  e.start = start;
  e.end = end;
  e.hof_multiplier = hof_multiplier;
  return e;
}

FaultEvent core_overload_storm(geo::Region region, util::TimestampMs start,
                               util::TimestampMs end, double hof_multiplier,
                               double overload_boost) {
  FaultEvent e;
  e.kind = FaultKind::kCoreOverloadStorm;
  e.region = region;
  e.start = start;
  e.end = end;
  e.hof_multiplier = hof_multiplier;
  e.overload_boost = overload_boost;
  return e;
}

FaultEvent vendor_bug_wave(topology::Vendor vendor, util::TimestampMs start,
                           util::TimestampMs end, double hof_multiplier) {
  FaultEvent e;
  e.kind = FaultKind::kVendorBugWave;
  e.vendor = vendor;
  e.start = start;
  e.end = end;
  e.hof_multiplier = hof_multiplier;
  return e;
}

FaultEvent signaling_storm(geo::Region region, util::TimestampMs start,
                           util::TimestampMs end, double overload_boost) {
  FaultEvent e;
  e.kind = FaultKind::kSignalingStorm;
  e.region = region;
  e.start = start;
  e.end = end;
  e.overload_boost = overload_boost;
  return e;
}

Scenario& Scenario::merge(const Scenario& other) {
  events.insert(events.end(), other.events.begin(), other.events.end());
  return *this;
}

Scenario sector_day_incidents(const topology::Deployment& deployment, int days,
                              double incidents_per_day, std::uint64_t seed,
                              double outage_share, double degraded_hof_multiplier) {
  Scenario scenario;
  scenario.name = "sector-day-incidents";
  scenario.description = "seeded random mix of sector outages and day-long degradations";

  const auto& sectors = deployment.sectors();
  if (sectors.empty() || days <= 0 || incidents_per_day <= 0.0) return scenario;

  util::Rng rng = util::Rng::derive(seed, 0xfa17u);
  for (int day = 0; day < days; ++day) {
    // Poisson-ish incident count via independent thinning of a 2x budget;
    // keeps the draw count bounded and the schedule deterministic in seed.
    const int budget = std::max(1, static_cast<int>(incidents_per_day * 2.0));
    for (int i = 0; i < budget; ++i) {
      if (!rng.chance(incidents_per_day / static_cast<double>(budget))) continue;
      const auto idx = static_cast<std::size_t>(rng.below(sectors.size()));
      const topology::SectorId sector = sectors[idx].id;
      if (rng.chance(outage_share)) {
        const double start_hour = rng.uniform(0.0, 20.0);
        const double duration_h = rng.uniform(1.0, 4.0);
        scenario.add(sector_outage(sector, at_hour(day, start_hour),
                                   at_hour(day, start_hour + duration_h)));
      } else {
        scenario.add(sector_degradation(sector, at_hour(day, 0.0), at_hour(day + 1, 0.0),
                                        degraded_hof_multiplier));
      }
    }
  }
  return scenario;
}

Scenario single_sector_drill(topology::SectorId sector, int day, double start_hour,
                             double end_hour) {
  Scenario scenario;
  scenario.name = "single-sector-drill";
  scenario.description = "scripted outage of one sector inside one day";
  scenario.add(sector_outage(sector, at_hour(day, start_hour), at_hour(day, end_hour)));
  return scenario;
}

}  // namespace tl::faults
