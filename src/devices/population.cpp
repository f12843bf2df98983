#include "devices/population.hpp"

#include <cmath>
#include <stdexcept>

#include "devices/apn.hpp"
#include "util/distributions.hpp"
#include "util/hash.hpp"

namespace tl::devices {

Population Population::build(const geo::Country& country, const Catalog& catalog,
                             const PopulationConfig& config) {
  if (config.count == 0) throw std::invalid_argument{"PopulationConfig: zero UEs"};
  Population pop;
  util::Rng rng = util::Rng::derive(config.seed, 0x90b5u);

  // --- Home-district weights: census population with market-share noise. ---
  const auto districts = country.districts();
  std::vector<double> district_weight(districts.size());
  for (std::size_t i = 0; i < districts.size(); ++i) {
    district_weight[i] = static_cast<double>(districts[i].population) *
                         std::exp(rng.normal(0.0, config.market_noise_sigma));
  }
  util::DiscreteSampler district_sampler{district_weight};

  // Within a district, homes follow postcode residents.
  std::vector<util::DiscreteSampler> postcode_samplers;
  postcode_samplers.reserve(districts.size());
  for (const auto& d : districts) {
    std::vector<double> w;
    w.reserve(d.postcodes.size());
    for (const geo::PostcodeId pc : d.postcodes) {
      w.push_back(static_cast<double>(country.postcode(pc).residents) + 1.0);
    }
    postcode_samplers.emplace_back(w);
  }

  util::DiscreteSampler type_sampler{kDeviceTypeShares};

  pop.ues_.reserve(config.count);
  for (UeId id = 0; id < config.count; ++id) {
    Ue ue;
    ue.id = id;
    ue.anon_id = util::anonymize(id, config.anonymization_key);
    ue.type = static_cast<DeviceType>(type_sampler.sample(rng));
    const DeviceModel& model = catalog.sample_model(ue.type, rng);
    ue.tac = model.tac;
    ue.manufacturer = model.manufacturer;
    ue.rat_support = model.rat_support;

    ue.home_district = static_cast<geo::DistrictId>(district_sampler.sample(rng));
    const auto& district = districts[ue.home_district];
    ue.home_postcode =
        district.postcodes[postcode_samplers[ue.home_district].sample(rng)];

    switch (ue.type) {
      case DeviceType::kSmartphone: ue.srvcc_subscribed = rng.chance(0.92); break;
      case DeviceType::kFeaturePhone: ue.srvcc_subscribed = rng.chance(0.80); break;
      case DeviceType::kM2mIot: ue.srvcc_subscribed = rng.chance(0.30); break;
    }
    ue.apn = sample_apn(ue.type, rng);

    const Manufacturer& maker = catalog.manufacturer(ue.manufacturer);
    ue.ho_rate_multiplier =
        static_cast<float>(maker.ho_multiplier * std::exp(rng.normal(0.0, 0.18)));
    ue.hof_multiplier =
        static_cast<float>(maker.hof_multiplier * std::exp(rng.normal(0.0, 0.25)));

    pop.ues_.push_back(std::move(ue));
  }
  return pop;
}

std::array<double, 3> Population::type_shares() const {
  std::array<double, 3> counts{};
  for (const auto& ue : ues_) counts[static_cast<std::size_t>(ue.type)] += 1.0;
  for (auto& c : counts) c /= static_cast<double>(ues_.size());
  return counts;
}

std::array<double, 4> Population::rat_support_shares() const {
  std::array<double, 4> counts{};
  for (const auto& ue : ues_) counts[static_cast<std::size_t>(ue.rat_support)] += 1.0;
  for (auto& c : counts) c /= static_cast<double>(ues_.size());
  return counts;
}

}  // namespace tl::devices
