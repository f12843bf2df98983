#pragma once

// GSMA-like device catalog.
//
// The paper joins the first 8 IMEI digits (the Type Allocation Code) against
// a commercial GSMA database to recover manufacturer, device type, and
// supported RATs. This module synthesizes that database: a manufacturer
// roster with the paper's market shares and per-manufacturer behaviour
// multipliers (Fig. 11's outliers: KVD and HMD at +600% HOF rate, Simcom at
// +293% HOs per UE, Google at -27% HOF), plus a table of TAC-coded models.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "devices/device_type.hpp"
#include "topology/rat.hpp"
#include "util/rng.hpp"

namespace tl::devices {

using ManufacturerId = std::uint16_t;
using Tac = std::uint32_t;  // 8-digit Type Allocation Code

struct Manufacturer {
  ManufacturerId id = 0;
  std::string name;
  DeviceType type = DeviceType::kSmartphone;
  /// Market share within its device type.
  double share = 0.0;
  /// Behaviour multipliers vs the average device in the same district.
  double ho_multiplier = 1.0;
  double hof_multiplier = 1.0;
  /// Distribution over RatSupport {2G, 3G, 4G, 5G} for this maker's models.
  std::array<double, 4> capability_weights{0.0, 0.0, 0.5, 0.5};
};

struct DeviceModel {
  Tac tac = 0;
  ManufacturerId manufacturer = 0;
  DeviceType type = DeviceType::kSmartphone;
  topology::RatSupport rat_support = topology::RatSupport::kUpTo4G;
};

struct CatalogConfig {
  /// Approximate number of TAC entries to generate.
  std::uint32_t models = 2'000;
  std::uint64_t seed = 17;
};

class Catalog {
 public:
  static Catalog build(const CatalogConfig& config);

  std::span<const Manufacturer> manufacturers() const noexcept { return manufacturers_; }
  std::span<const DeviceModel> models() const noexcept { return models_; }

  const Manufacturer& manufacturer(ManufacturerId id) const { return manufacturers_.at(id); }

  /// Samples a model of the given device type according to market shares.
  const DeviceModel& sample_model(DeviceType type, util::Rng& rng) const;

  /// The manufacturer named `name`; throws if absent.
  const Manufacturer& by_name(const std::string& name) const;

 private:
  std::vector<Manufacturer> manufacturers_;
  std::vector<DeviceModel> models_;
  // Per device type: model indices, their sampling weights and the weights'
  // sum (added in model order).
  std::array<std::vector<std::size_t>, 3> models_by_type_;
  std::array<std::vector<double>, 3> model_weights_by_type_;
  std::array<double, 3> model_weight_totals_{};
};

/// The paper's device-type shares (Fig. 4a).
inline constexpr std::array<double, 3> kDeviceTypeShares{0.591, 0.398, 0.011};

}  // namespace tl::devices
