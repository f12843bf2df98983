#pragma once

// The mobility-management signaling record (§3.1).
//
// Six captured variables, as in the paper: (i) millisecond timestamp,
// (ii) HO result, (iii) HO duration, (iv) failure cause code, (v) anonymized
// user id, (vi) source/target sectors with their RATs. The remaining fields
// are the joins the paper performs against the topology dataset, the GSMA
// catalog, and the census — precomputed here so aggregators are O(1).

#include <cstdint>

#include "core_network/failure_causes.hpp"
#include "devices/device_type.hpp"
#include "devices/population.hpp"
#include "geo/district.hpp"
#include "geo/region.hpp"
#include "topology/rat.hpp"
#include "topology/sector.hpp"
#include "topology/vendor.hpp"
#include "util/sim_time.hpp"

namespace tl::telemetry {

struct HandoverRecord {
  // --- the six captured variables ---
  util::TimestampMs timestamp = 0;
  bool success = true;
  float duration_ms = 0.0f;
  corenet::CauseId cause = corenet::kCauseNone;
  std::uint64_t anon_user_id = 0;
  topology::SectorId source_sector = 0;
  topology::SectorId target_sector = 0;
  topology::ObservedRat source_rat = topology::ObservedRat::kG45Nsa;
  topology::ObservedRat target_rat = topology::ObservedRat::kG45Nsa;

  // --- joined context (topology dataset, devices catalog, census) ---
  devices::DeviceType device_type = devices::DeviceType::kSmartphone;
  devices::ManufacturerId manufacturer = 0;
  geo::PostcodeId postcode = 0;
  geo::DistrictId district = 0;
  geo::AreaType area = geo::AreaType::kUrban;
  geo::Region region = geo::Region::kCapital;
  topology::Vendor vendor = topology::Vendor::kV1;
  bool srvcc = false;
  /// 0 = first try of this HO opportunity; k >= 1 = k-th recovery re-attempt
  /// after a failure (RRC re-establishment toward the same target). Lets
  /// retry chains and failure-driven ping-pong be measured downstream.
  std::uint8_t attempt = 0;

  bool is_vertical() const noexcept {
    return target_rat != topology::ObservedRat::kG45Nsa;
  }
  int day() const noexcept { return util::SimCalendar::day_index(timestamp); }
};

/// Per-UE-day mobility/performance summary (§3.3 metrics + HOF exposure);
/// feeds Figs. 10 and 13.
struct UeDayMetrics {
  devices::UeId ue = 0;
  int day = 0;
  std::uint32_t handovers = 0;
  std::uint32_t failures = 0;
  std::uint32_t distinct_sectors = 0;
  float radius_of_gyration_km = 0.0f;
  devices::DeviceType device_type = devices::DeviceType::kSmartphone;

  double hof_rate() const noexcept {
    return handovers ? static_cast<double>(failures) / static_cast<double>(handovers)
                     : 0.0;
  }
};

}  // namespace tl::telemetry
