#pragma once

// Incident scripting on top of the raw FaultEvent schedule.
//
// Builders return single events (an outage of one sector, a bug wave on one
// vendor's fleet); a Scenario bundles named events so drills can be
// described, printed and replayed.

#include <string>
#include <vector>

#include "faults/fault_schedule.hpp"

namespace tl::faults {

/// Study timestamp for `hour` (fractional) of day `day`.
constexpr util::TimestampMs at_hour(int day, double hour) noexcept {
  return static_cast<util::TimestampMs>(day) * util::kMsPerDay +
         static_cast<util::TimestampMs>(hour * static_cast<double>(util::kMsPerHour));
}

FaultEvent sector_outage(topology::SectorId sector, util::TimestampMs start,
                         util::TimestampMs end);
FaultEvent vendor_bug_wave(topology::Vendor vendor, util::TimestampMs start,
                           util::TimestampMs end, double hof_multiplier = 5.0);

/// A named, composable bundle of incidents.
struct Scenario {
  std::string name;
  std::string description;
  std::vector<FaultEvent> events;

  Scenario& add(const FaultEvent& event) {
    events.push_back(event);
    return *this;
  }
  /// Installs every event into `schedule`.
  void install(FaultSchedule& schedule) const { schedule.add(events); }
};

/// Canned single-sector incident drill: a scripted outage of `sector` over
/// [start_hour, end_hour) of `day` — the before/during/after shape the
/// incident_drill example and the fault tests measure.
Scenario single_sector_drill(topology::SectorId sector, int day, double start_hour,
                             double end_hour);

}  // namespace tl::faults
