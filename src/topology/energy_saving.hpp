#pragma once

// Energy-saving sector activity (Fig. 7, bottom).
//
// MNOs switch off capacity-booster sectors when demand is low. The paper
// observes ~99% of sectors active from the 08:00 peak until 17:00, then a
// ~1% decline per 30 minutes until midnight, with the active-sector series
// correlating 0.9 with the HO series. This module decides, per sector and
// half-hour bin, whether the sector is serving.

#include <cstdint>

#include "topology/sector.hpp"
#include "util/sim_time.hpp"

namespace tl::topology {

/// External veto over sector availability: the fault-injection schedule
/// implements this so scripted outages flow through the same `is_active`
/// gate as organic energy saving (dependency-inverted — topology knows the
/// interface, faults provides the implementation).
class SectorAvailabilityOverride {
 public:
  virtual ~SectorAvailabilityOverride() = default;
  /// True when `sector` must be treated as off-air during this half-hour bin.
  virtual bool forced_off(const RadioSector& sector, int day,
                          int half_hour_bin) const noexcept = 0;
};

class EnergySavingPolicy {
 public:
  explicit EnergySavingPolicy(std::uint64_t seed = 0x5a5a) : seed_(seed) {}

  /// Installs (or clears, with nullptr) an availability veto; borrowed.
  void set_availability_override(const SectorAvailabilityOverride* override_hook) noexcept {
    override_ = override_hook;
  }

  /// Fraction of the booster fleet allowed to sleep in this half-hour bin
  /// (0 = all boosters on). Deterministic daily shape; identical for
  /// weekdays and weekends, as the paper observes.
  static double booster_sleep_fraction(int half_hour_bin) noexcept;

  /// Whether `sector` is active during `bin` of day `day`. Non-boosters are
  /// always active; boosters sleep pseudo-randomly but stably (the same
  /// sector keeps its shutdown slot across the study, keyed by sector id).
  bool is_active(const RadioSector& sector, int day, int half_hour_bin) const noexcept;

  /// Expected fraction of all sectors active given a booster share.
  static double expected_active_fraction(double booster_share, int half_hour_bin) noexcept;

 private:
  std::uint64_t seed_;
  const SectorAvailabilityOverride* override_ = nullptr;
};

}  // namespace tl::topology
