#pragma once

// The UE population: ~40M devices at full scale, scaled down linearly.
//
// Each UE carries its device identity (TAC -> catalog), home location
// (postcode/district, proportional to census population with market-share
// noise — the source of Fig. 5's R^2 = 0.92), SRVCC subscription, and
// per-device behaviour multipliers combining manufacturer effects with
// individual variation.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "devices/catalog.hpp"
#include "devices/device_type.hpp"
#include "geo/country.hpp"
#include "topology/rat.hpp"

namespace tl::devices {

using UeId = std::uint32_t;

struct Ue {
  UeId id = 0;
  /// Keyed hash of IMSI/IMEI — the only identity telemetry ever sees.
  std::uint64_t anon_id = 0;
  Tac tac = 0;
  DeviceType type = DeviceType::kSmartphone;
  ManufacturerId manufacturer = 0;
  topology::RatSupport rat_support = topology::RatSupport::kUpTo4G;
  geo::PostcodeId home_postcode = 0;
  geo::DistrictId home_district = 0;
  /// Whether the subscriber has the SRVCC service (HOF Cause #6 hinges on it).
  bool srvcc_subscribed = true;
  /// Configured APN. No analysis reads it, but its sample_apn draw advances
  /// the build RNG: dropping it would change every UE drawn after it.
  std::string apn;
  /// Per-device multipliers on HO volume and failure propensity
  /// (manufacturer effect x individual lognormal variation).
  float ho_rate_multiplier = 1.0f;
  float hof_multiplier = 1.0f;
};

struct PopulationConfig {
  std::uint32_t count = 100'000;
  /// Log-scale sigma of the per-district market-share noise; drives how far
  /// the MNO-inferred population deviates from census (Fig. 5).
  double market_noise_sigma = 0.32;
  std::uint64_t anonymization_key = 0xbeefcafe12345678ULL;
  std::uint64_t seed = 23;
};

class Population {
 public:
  static Population build(const geo::Country& country, const Catalog& catalog,
                          const PopulationConfig& config);

  std::span<const Ue> ues() const noexcept { return ues_; }
  const Ue& ue(UeId id) const { return ues_.at(id); }
  std::size_t size() const noexcept { return ues_.size(); }

  /// Share of UEs per device type (Fig. 4a check).
  std::array<double, 3> type_shares() const;

  /// Share of UEs per supported-RAT ceiling (Fig. 4b check).
  std::array<double, 4> rat_support_shares() const;

 private:
  std::vector<Ue> ues_;
};

}  // namespace tl::devices
