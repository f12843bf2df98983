#pragma once

// Composable incident scripting on top of the raw FaultEvent schedule.
//
// Builders return single events with operationally sensible defaults (an
// MME storm both inflates HOFs and boosts overload; a bug wave only
// inflates); a Scenario bundles named events so drills can be described,
// printed and replayed. `sector_day_incidents` generates a seeded random
// incident mix across a deployment — the generator counterpart of the
// paper's observation that failures concentrate in sector-day incidents.

#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault_schedule.hpp"
#include "topology/deployment.hpp"

namespace tl::faults {

/// Study timestamp for `hour` (fractional) of day `day`.
constexpr util::TimestampMs at_hour(int day, double hour) noexcept {
  return static_cast<util::TimestampMs>(day) * util::kMsPerDay +
         static_cast<util::TimestampMs>(hour * static_cast<double>(util::kMsPerHour));
}

FaultEvent sector_outage(topology::SectorId sector, util::TimestampMs start,
                         util::TimestampMs end);
FaultEvent sector_degradation(topology::SectorId sector, util::TimestampMs start,
                              util::TimestampMs end, double hof_multiplier = 25.0);
FaultEvent core_overload_storm(geo::Region region, util::TimestampMs start,
                               util::TimestampMs end, double hof_multiplier = 3.0,
                               double overload_boost = 0.35);
FaultEvent vendor_bug_wave(topology::Vendor vendor, util::TimestampMs start,
                           util::TimestampMs end, double hof_multiplier = 5.0);
FaultEvent signaling_storm(geo::Region region, util::TimestampMs start,
                           util::TimestampMs end, double overload_boost = 0.5);

/// A named, composable bundle of incidents.
struct Scenario {
  std::string name;
  std::string description;
  std::vector<FaultEvent> events;

  Scenario& add(const FaultEvent& event) {
    events.push_back(event);
    return *this;
  }
  Scenario& merge(const Scenario& other);
  /// Installs every event into `schedule`.
  void install(FaultSchedule& schedule) const { schedule.add(events); }
};

/// Seeded random sector-day incident mix over a deployment: each study day,
/// `incidents_per_day` sectors (in expectation) suffer either a multi-hour
/// outage or a day-long degradation. Deterministic in (deployment, seed).
Scenario sector_day_incidents(const topology::Deployment& deployment, int days,
                              double incidents_per_day, std::uint64_t seed,
                              double outage_share = 0.3,
                              double degraded_hof_multiplier = 25.0);

/// Canned single-sector incident drill: a scripted outage of `sector` over
/// [start_hour, end_hour) of `day` — the before/during/after shape the
/// incident_drill example and the fault tests measure.
Scenario single_sector_drill(topology::SectorId sector, int day, double start_hour,
                             double end_hour);

}  // namespace tl::faults
