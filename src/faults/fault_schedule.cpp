#include "faults/fault_schedule.hpp"

namespace tl::faults {

bool FaultEvent::active_in_bin(int day, int bin) const noexcept {
  const util::TimestampMs bin_start = static_cast<util::TimestampMs>(day) * util::kMsPerDay +
                                      static_cast<util::TimestampMs>(bin) * 30 *
                                          util::kMsPerMinute;
  const util::TimestampMs bin_end = bin_start + 30 * util::kMsPerMinute;
  return start < bin_end && end > bin_start;
}

void FaultSchedule::add(const FaultEvent& event) {
  if (event.kind == FaultKind::kSectorOutage) {
    outages_.push_back(event);
  } else {
    modifiers_.push_back(event);
  }
}

void FaultSchedule::add(const std::vector<FaultEvent>& events) {
  for (const auto& e : events) add(e);
}

bool FaultSchedule::forced_off(const topology::RadioSector& sector, int day,
                               int half_hour_bin) const noexcept {
  for (const auto& e : outages_) {
    if (!e.active_in_bin(day, half_hour_bin)) continue;
    if (e.sector == sector.id) return true;
  }
  return false;
}

double FaultSchedule::hof_multiplier(topology::Vendor vendor,
                                     util::TimestampMs t) const noexcept {
  double multiplier = 1.0;
  for (const auto& e : modifiers_) {
    if (e.active_at(t) && e.vendor == vendor) multiplier *= e.hof_multiplier;
  }
  return multiplier;
}

}  // namespace tl::faults
