#include "faults/scenarios.hpp"

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

Scenario single_sector_drill(topology::SectorId sector, int day, double start_hour,
                             double end_hour) {
  Scenario scenario;
  scenario.name = "single-sector-drill";
  scenario.description = "scripted outage of one sector inside one day";
  scenario.add(sector_outage(sector, at_hour(day, start_hour), at_hour(day, end_hour)));
  return scenario;
}

}  // namespace tl::faults
