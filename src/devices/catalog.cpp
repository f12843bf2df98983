#include "devices/catalog.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/distributions.hpp"

namespace tl::devices {

namespace {

using topology::RatSupport;

/// Capability mixes per device type, solved so the population marginals land
/// on the paper's Fig. 4b: overall 12.6% 2G-only, 20.1% up-to-3G, 67.2%
/// 4G/5G; smartphones 51.4% up-to-4G / 48.5% 5G; >80% of M2M and >50% of
/// feature phones at most 3G.
constexpr std::array<double, 4> kSmartphoneCaps{0.000, 0.001, 0.514, 0.485};
constexpr std::array<double, 4> kM2mCaps{0.310, 0.490, 0.170, 0.030};
constexpr std::array<double, 4> kFeatureCaps{0.250, 0.350, 0.390, 0.010};

struct Seed {
  const char* name;
  DeviceType type;
  double share;
  double ho_mult;
  double hof_mult;
  // Optional capability override (all -1 = use the type default).
  std::array<double, 4> caps{-1.0, -1.0, -1.0, -1.0};
};

/// Market roster. Shares are within-type; the Fig. 11 outliers carry their
/// measured behaviour multipliers.
constexpr Seed kRoster[] = {
    // Smartphones (Fig. 4a: Apple 54.8%, Samsung 30.2%, then the tail).
    {"Apple", DeviceType::kSmartphone, 0.548, 1.04, 1.08, {}},
    {"Samsung", DeviceType::kSmartphone, 0.302, 1.00, 1.00, {}},
    {"Motorola", DeviceType::kSmartphone, 0.045, 0.97, 1.02, {}},
    {"Google", DeviceType::kSmartphone, 0.031, 1.02, 0.73, {}},
    {"Huawei", DeviceType::kSmartphone, 0.029, 0.95, 1.05, {}},
    {"Xiaomi", DeviceType::kSmartphone, 0.020, 1.05, 1.10, {}},
    {"Oppo", DeviceType::kSmartphone, 0.012, 1.03, 1.15, {}},
    {"KVD", DeviceType::kSmartphone, 0.005, 1.45, 7.00, {0.0, 0.02, 0.90, 0.08}},
    {"OtherSmart", DeviceType::kSmartphone, 0.008, 1.00, 1.30, {}},
    // M2M/IoT: diversified; >27% outside the top-5.
    {"Simcom", DeviceType::kM2mIot, 0.180, 3.93, 1.60, {0.45, 0.40, 0.15, 0.00}},
    {"Quectel", DeviceType::kM2mIot, 0.160, 1.05, 1.05, {}},
    {"Telit", DeviceType::kM2mIot, 0.130, 0.95, 1.00, {}},
    {"SierraWireless", DeviceType::kM2mIot, 0.080, 1.10, 1.10, {}},
    {"HuaweiM2M", DeviceType::kM2mIot, 0.070, 1.00, 1.00, {}},
    {"Teltonika", DeviceType::kM2mIot, 0.060, 1.15, 1.05, {}},
    {"NetModule", DeviceType::kM2mIot, 0.050, 1.20, 1.10, {}},
    {"OtherM2M", DeviceType::kM2mIot, 0.270, 0.90, 1.00, {}},
    // Feature phones: HMD is the +600% HOF outlier.
    {"HMD", DeviceType::kFeaturePhone, 0.280, 1.10, 7.00, {}},
    {"NokiaLegacy", DeviceType::kFeaturePhone, 0.220, 0.90, 1.20, {}},
    {"Alcatel", DeviceType::kFeaturePhone, 0.180, 0.95, 1.30, {}},
    {"Doro", DeviceType::kFeaturePhone, 0.120, 0.85, 1.25, {}},
    {"SamsungFeature", DeviceType::kFeaturePhone, 0.080, 0.90, 1.10, {}},
    {"OtherFeature", DeviceType::kFeaturePhone, 0.120, 0.95, 1.40, {}},
};

constexpr std::array<double, 4> type_default_caps(DeviceType t) {
  switch (t) {
    case DeviceType::kSmartphone: return kSmartphoneCaps;
    case DeviceType::kM2mIot: return kM2mCaps;
    case DeviceType::kFeaturePhone: return kFeatureCaps;
  }
  return kSmartphoneCaps;
}

}  // namespace

Catalog Catalog::build(const CatalogConfig& config) {
  Catalog catalog;
  util::Rng rng = util::Rng::derive(config.seed, 0xca7au);

  for (const Seed& seed : kRoster) {
    Manufacturer m;
    m.id = static_cast<ManufacturerId>(catalog.manufacturers_.size());
    m.name = seed.name;
    m.type = seed.type;
    m.share = seed.share;
    m.ho_multiplier = seed.ho_mult;
    m.hof_multiplier = seed.hof_mult;
    const double cap_sum = seed.caps[0] + seed.caps[1] + seed.caps[2] + seed.caps[3];
    m.capability_weights = cap_sum > 0.0 ? seed.caps : type_default_caps(seed.type);
    catalog.manufacturers_.push_back(std::move(m));
  }

  // Spread TAC entries over manufacturers proportionally to share, with at
  // least a handful of models each. Model capability follows the maker's mix.
  Tac next_tac = 35'000'000;  // 8-digit codes, GSMA "35" reporting-body prefix
  for (const auto& m : catalog.manufacturers_) {
    const auto n_models = std::max<std::uint32_t>(
        4, static_cast<std::uint32_t>(m.share * config.models /
                                      3.0 * kDeviceTypeShares.size()));
    util::DiscreteSampler cap_sampler{m.capability_weights};
    for (std::uint32_t i = 0; i < n_models; ++i) {
      DeviceModel model;
      model.tac = next_tac;
      next_tac += static_cast<Tac>(1 + rng.below(90));
      model.manufacturer = m.id;
      model.type = m.type;
      model.rat_support = static_cast<RatSupport>(cap_sampler.sample(rng));
      catalog.models_.push_back(model);
    }
  }

  // Per-type samplers: model weight = manufacturer share split evenly over
  // its models, with a mild popularity skew (flagship models dominate).
  std::array<std::vector<double>, 3> per_model_weight;
  std::array<std::uint32_t, 32> model_counts{};
  for (const auto& model : catalog.models_) model_counts[model.manufacturer]++;
  for (std::size_t i = 0; i < catalog.models_.size(); ++i) {
    const auto& model = catalog.models_[i];
    const auto& maker = catalog.manufacturers_[model.manufacturer];
    const double base = maker.share / model_counts[model.manufacturer];
    const double skew = std::exp(rng.normal(0.0, 0.8));
    const auto type_idx = static_cast<std::size_t>(model.type);
    catalog.models_by_type_[type_idx].push_back(i);
    catalog.model_weights_by_type_[type_idx].push_back(base * skew);
  }
  for (std::size_t t = 0; t < catalog.model_weights_by_type_.size(); ++t) {
    for (const double w : catalog.model_weights_by_type_[t]) {
      catalog.model_weight_totals_[t] += w;
    }
  }
  return catalog;
}

const DeviceModel& Catalog::sample_model(DeviceType type, util::Rng& rng) const {
  const auto type_idx = static_cast<std::size_t>(type);
  const auto& indices = models_by_type_[type_idx];
  const auto& weights = model_weights_by_type_[type_idx];
  if (indices.empty()) throw std::logic_error{"Catalog: no models for type"};
  // Linear CDF walk is fine here: sampling happens once per UE at build time.
  double u = rng.uniform() * model_weight_totals_[type_idx];
  for (std::size_t i = 0; i < indices.size(); ++i) {
    u -= weights[i];
    if (u <= 0.0) return models_[indices[i]];
  }
  return models_[indices.back()];
}

const Manufacturer& Catalog::by_name(const std::string& name) const {
  for (const auto& m : manufacturers_) {
    if (m.name == name) return m;
  }
  throw std::out_of_range{"Catalog::by_name: unknown manufacturer " + name};
}

}  // namespace tl::devices
