#pragma once

// Serving/target sector location on the deployment.
//
// Extracted from the simulator's hot loop so the handover policy engine
// (src/policy) shares the exact lookup the calibrated pipeline uses: the
// baseline policy replays locate() verbatim (same RNG draws, same energy /
// fault semantics), while measurement-driven policies enumerate candidates()
// — a deterministic, draw-free view of the same neighborhood.

#include <vector>

#include "devices/population.hpp"
#include "faults/fault_schedule.hpp"
#include "ran/target_selection.hpp"
#include "topology/deployment.hpp"
#include "topology/energy_saving.hpp"
#include "util/geo_point.hpp"
#include "util/rng.hpp"

namespace tl::ran {

class SectorLocator {
 public:
  SectorLocator(const topology::Deployment& deployment, const TargetSelector& selector,
                const topology::EnergySavingPolicy& energy) noexcept
      : deployment_(deployment), selector_(selector), energy_(energy) {}

  /// Borrowed fault schedule (nullptr clears). Faulted sectors suppress
  /// their site in locate() and are excluded from candidates().
  void set_fault_schedule(const faults::FaultSchedule* schedule) noexcept {
    faults_ = schedule;
  }

  /// Serving/target sector on the site nearest `position` for the UE's RAT
  /// class, honoring the energy-saving schedule. kInvalidSector if none.
  ///
  /// Moved verbatim from Simulator::locate_sector: the byte-identity of the
  /// calibrated record stream depends on this call's RNG-draw sequence
  /// (TargetSelector::pick_sector per candidate site) staying fixed.
  topology::SectorId locate(const util::GeoPoint& position, topology::ObservedRat rat_class,
                            const devices::Ue& ue, int day, int bin, util::Rng& rng) const;

  /// Deterministic candidate enumeration for measurement-driven policies:
  /// every sector of `rat_class` the UE supports on the `max_sites` nearest
  /// sites that could execute a handover right now — active, or a sleeping
  /// booster that would wake for the HO; faulted sectors are excluded, like
  /// locate()'s outage veto. Consumes no RNG draws, and the order (site
  /// proximity, then site-local sector order) is stable, so policies that
  /// rank candidates stay seed-deterministic. Appends to `out` (cleared
  /// first).
  void candidates(const util::GeoPoint& position, topology::ObservedRat rat_class,
                  const devices::Ue& ue, int day, int bin, std::size_t max_sites,
                  std::vector<topology::SectorId>& out) const;

 private:
  const topology::Deployment& deployment_;
  const TargetSelector& selector_;
  const topology::EnergySavingPolicy& energy_;
  const faults::FaultSchedule* faults_ = nullptr;
};

}  // namespace tl::ran
