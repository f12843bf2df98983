#pragma once

// Deterministic fault-injection schedule.
//
// The paper's §6 is about *failure*: HOF causes cluster in sector-day
// incidents (Table 6 / Fig. 16) rather than spreading evenly. This module
// lets a study script incidents — sector outages and vendor software-bug
// waves — as explicit time-windowed events. The simulator hot path consults
// the active schedule (FailureModel for HOF inflation,
// EnergySavingPolicy/SectorLocator for sector availability), so injected
// faults flow into records, causes and durations exactly like organic ones.
//
// An empty schedule is free: every query short-circuits on empty(), so runs
// without faults are byte-identical to a build without this subsystem.

#include <cstdint>
#include <vector>

#include "topology/energy_saving.hpp"
#include "topology/sector.hpp"
#include "topology/vendor.hpp"
#include "util/sim_time.hpp"

namespace tl::faults {

enum class FaultKind : std::uint8_t {
  /// One radio sector off-air (hardware failure, fiber cut to the head).
  kSectorOutage = 0,
  /// A software regression on one vendor's RAN fleet: vendor-wide HOF
  /// multiplier for the duration of the wave.
  kVendorBugWave,
};

/// One scripted incident. `start`/`end` bound the window as [start, end) in
/// study milliseconds; the scope fields that apply depend on `kind`.
struct FaultEvent {
  FaultKind kind = FaultKind::kSectorOutage;
  util::TimestampMs start = 0;
  util::TimestampMs end = 0;

  // Scope selectors: an outage reads `sector`, a bug wave `vendor`.
  topology::SectorId sector = topology::kInvalidSector;
  topology::Vendor vendor = topology::Vendor::kV1;

  /// Multiplies the per-HO failure probability of a bug wave's attempts.
  double hof_multiplier = 1.0;

  bool active_at(util::TimestampMs t) const noexcept { return t >= start && t < end; }
  /// Whether the window overlaps half-hour bin `bin` of day `day`.
  bool active_in_bin(int day, int bin) const noexcept;
};

/// The assembled schedule. Events are partitioned into availability events
/// (outages, consulted per sector lookup) and modifier events (bug waves'
/// HOF multipliers, consulted per HO attempt) so each hot-path query scans
/// only the relevant — typically tiny — list.
class FaultSchedule final : public topology::SectorAvailabilityOverride {
 public:
  FaultSchedule() = default;

  void add(const FaultEvent& event);
  void add(const std::vector<FaultEvent>& events);

  bool empty() const noexcept { return outages_.empty() && modifiers_.empty(); }
  std::size_t size() const noexcept { return outages_.size() + modifiers_.size(); }

  /// topology::SectorAvailabilityOverride: bin-granular availability, as the
  /// energy-saving policy (and through it the serving-sector lookup) sees
  /// it. A sector is forced off for every bin its outage window overlaps.
  bool forced_off(const topology::RadioSector& sector, int day,
                  int half_hour_bin) const noexcept override;

  /// Product of the HOF multipliers of every bug wave active at `t` on
  /// the attempt's source vendor.
  double hof_multiplier(topology::Vendor vendor, util::TimestampMs t) const noexcept;

 private:
  std::vector<FaultEvent> outages_;
  std::vector<FaultEvent> modifiers_;
};

}  // namespace tl::faults
