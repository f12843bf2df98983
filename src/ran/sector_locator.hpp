#pragma once

// Serving/target sector location on the deployment.
//
// Extracted from the simulator's hot loop so the handover policy engine
// (src/policy) shares the exact lookup the calibrated pipeline uses: the
// baseline policy replays locate() verbatim (same RNG draws, same energy /
// fault semantics), while the load-balancing policy enumerates candidates()
// — a deterministic, draw-free view of the same neighborhood. Both walk a
// list of the kNearSites sites nearest the event, so a caller that has
// already looked the position up (a policy's decide(), coverage
// calibration) hands its list over instead of paying for a second lookup.

#include <array>
#include <cstddef>
#include <span>
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

  /// How many of the nearest sites locate() tries: a site may lack the
  /// requested layer, or have it switched off.
  static constexpr std::size_t kNearSites = 3;
  using NearSites = std::array<topology::SiteId, kNearSites>;

  /// An event's one site lookup: the (at most kNearSites) sites nearest
  /// `position`, nearest first, written to `buffer`.
  std::span<const topology::SiteId> near_sites(const util::GeoPoint& position,
                                               NearSites& buffer) const;

  /// Serving/target sector for the UE's RAT class on the first of `near`
  /// (near_sites() of the event's position) that can serve it, honoring the
  /// energy-saving schedule; kInvalidSector if none.
  ///
  /// Moved verbatim from Simulator::locate_sector: the byte-identity of the
  /// calibrated record stream depends on this call's RNG-draw sequence
  /// (TargetSelector::pick_sector per candidate site) staying fixed.
  topology::SectorId locate(std::span<const topology::SiteId> near,
                            topology::ObservedRat rat_class, const devices::Ue& ue, int day,
                            int bin, util::Rng& rng) const;

  /// locate() over near_sites(position).
  topology::SectorId locate(const util::GeoPoint& position, topology::ObservedRat rat_class,
                            const devices::Ue& ue, int day, int bin, util::Rng& rng) const;

  /// Deterministic candidate enumeration for the load-balancing policy:
  /// every sector of `rat_class` the UE supports on the sites of `near`
  /// (as for locate()) that could execute a handover right now — active, or
  /// a sleeping booster that would wake for the HO; faulted sectors are
  /// excluded, like locate()'s outage veto. Consumes no RNG draws, and the
  /// order (site proximity, then site-local sector order) is stable, so
  /// policies that rank candidates stay seed-deterministic. Appends to
  /// `out` (cleared first).
  void candidates(std::span<const topology::SiteId> near, topology::ObservedRat rat_class,
                  const devices::Ue& ue, int day, int bin,
                  std::vector<topology::SectorId>& out) const;

 private:
  const topology::Deployment& deployment_;
  const TargetSelector& selector_;
  const topology::EnergySavingPolicy& energy_;
  const faults::FaultSchedule* faults_ = nullptr;
};

}  // namespace tl::ran
