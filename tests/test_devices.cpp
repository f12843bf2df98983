// Device catalog, APN synthesis, and UE population.

#include <gtest/gtest.h>

#include <map>

#include "devices/apn.hpp"
#include "devices/population.hpp"
#include "geo/census.hpp"

namespace tl::devices {
namespace {

const Catalog& catalog() {
  static const Catalog c = Catalog::build({2'000, 17});
  return c;
}

struct PopWorld {
  geo::Country country;
  Population population;
};

const PopWorld& pop_world() {
  static const PopWorld w = [] {
    geo::CensusConfig cc;
    cc.districts = 60;
    cc.total_population = 8'000'000;
    cc.seed = 5;
    geo::Country country = geo::synthesize_country(cc);
    PopulationConfig pc;
    pc.count = 40'000;
    pc.seed = 23;
    Population pop = Population::build(country, catalog(), pc);
    return PopWorld{std::move(country), std::move(pop)};
  }();
  return w;
}

TEST(Catalog, RosterSharesSumToOnePerType) {
  std::array<double, 3> sums{};
  for (const auto& m : catalog().manufacturers()) {
    sums[static_cast<std::size_t>(m.type)] += m.share;
  }
  for (const double s : sums) EXPECT_NEAR(s, 1.0, 1e-9);
}

TEST(Catalog, OutlierManufacturersCarryTheirMultipliers) {
  EXPECT_NEAR(catalog().by_name("KVD").hof_multiplier, 7.0, 1e-9);
  EXPECT_NEAR(catalog().by_name("HMD").hof_multiplier, 7.0, 1e-9);
  EXPECT_NEAR(catalog().by_name("Simcom").ho_multiplier, 3.93, 1e-9);
  EXPECT_NEAR(catalog().by_name("Google").hof_multiplier, 0.73, 1e-9);
  EXPECT_THROW(catalog().by_name("Nonexistent"), std::out_of_range);
}

TEST(Catalog, SampledModelsFollowMarketShares) {
  util::Rng rng{3};
  std::map<ManufacturerId, int> counts;
  constexpr int n = 100'000;
  for (int i = 0; i < n; ++i) {
    ++counts[catalog().sample_model(DeviceType::kSmartphone, rng).manufacturer];
  }
  const auto& apple = catalog().by_name("Apple");
  const auto& samsung = catalog().by_name("Samsung");
  EXPECT_NEAR(counts[apple.id] / static_cast<double>(n), 0.548, 0.05);
  EXPECT_NEAR(counts[samsung.id] / static_cast<double>(n), 0.302, 0.05);
}

TEST(Apn, M2mDevicesMostlyGetVerticalApns) {
  // The paper's keyword signal: IoT-vertical APNs carry one of these.
  const auto is_iot_apn = [](const std::string& apn) {
    for (const char* keyword : {"m2m", "iot", "smart-meter", "telemetry", "scada", "vending"}) {
      if (apn.find(keyword) != std::string::npos) return true;
    }
    return false;
  };
  util::Rng rng{4};
  int iot = 0;
  constexpr int n = 20'000;
  for (int i = 0; i < n; ++i) {
    if (is_iot_apn(sample_apn(DeviceType::kM2mIot, rng))) ++iot;
  }
  EXPECT_NEAR(iot / static_cast<double>(n), 0.88, 0.02);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(is_iot_apn(sample_apn(DeviceType::kSmartphone, rng)));
  }
}

TEST(Population, TypeSharesMatchFig4a) {
  const auto shares = pop_world().population.type_shares();
  EXPECT_NEAR(shares[0], 0.591, 0.02);  // smartphones
  EXPECT_NEAR(shares[1], 0.398, 0.02);  // M2M/IoT
  EXPECT_NEAR(shares[2], 0.011, 0.005); // feature phones
}

TEST(Population, RatSupportSharesMatchFig4b) {
  const auto shares = pop_world().population.rat_support_shares();
  EXPECT_NEAR(shares[0], 0.126, 0.02);            // 2G only
  EXPECT_NEAR(shares[1], 0.201, 0.03);            // up to 3G
  EXPECT_NEAR(shares[2] + shares[3], 0.672, 0.03); // 4G/5G capable
}

TEST(Population, SmartphoneCapabilitySplit) {
  std::array<std::uint64_t, 4> counts{};
  std::uint64_t smartphones = 0;
  for (const auto& ue : pop_world().population.ues()) {
    if (ue.type != DeviceType::kSmartphone) continue;
    ++smartphones;
    ++counts[static_cast<std::size_t>(ue.rat_support)];
  }
  const double up_to_4g = counts[2] / static_cast<double>(smartphones);
  const double is_5g = counts[3] / static_cast<double>(smartphones);
  EXPECT_NEAR(up_to_4g, 0.514, 0.05);
  EXPECT_NEAR(is_5g, 0.485, 0.05);
}

TEST(Population, LegacyShareOfM2m) {
  std::uint64_t m2m = 0, legacy = 0;
  for (const auto& ue : pop_world().population.ues()) {
    if (ue.type != DeviceType::kM2mIot) continue;
    ++m2m;
    if (ue.rat_support <= topology::RatSupport::kUpTo3G) ++legacy;
  }
  EXPECT_GT(legacy / static_cast<double>(m2m), 0.75);  // paper: >80%
}

TEST(Population, HomesFollowCensusPopulation) {
  const auto& w = pop_world();
  std::vector<double> census, homes(w.country.districts().size(), 0.0);
  for (const auto& d : w.country.districts()) census.push_back(static_cast<double>(d.population));
  for (const auto& ue : w.population.ues()) homes[ue.home_district] += 1.0;
  double cx = 0, cy = 0, cxy = 0, cxx = 0, cyy = 0;
  const std::size_t n = census.size();
  for (std::size_t i = 0; i < n; ++i) {
    cx += census[i];
    cy += homes[i];
  }
  cx /= n;
  cy /= n;
  for (std::size_t i = 0; i < n; ++i) {
    cxy += (census[i] - cx) * (homes[i] - cy);
    cxx += (census[i] - cx) * (census[i] - cx);
    cyy += (homes[i] - cy) * (homes[i] - cy);
  }
  EXPECT_GT(cxy / std::sqrt(cxx * cyy), 0.85);
}

TEST(Population, AnonIdsAreUniqueAndKeyed) {
  const auto& pop = pop_world().population;
  std::vector<std::uint64_t> ids;
  for (const auto& ue : pop.ues()) ids.push_back(ue.anon_id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(Population, SrvccSubscriptionRatesByType) {
  std::array<std::uint64_t, 3> total{}, subscribed{};
  for (const auto& ue : pop_world().population.ues()) {
    const auto t = static_cast<std::size_t>(ue.type);
    ++total[t];
    if (ue.srvcc_subscribed) ++subscribed[t];
  }
  EXPECT_NEAR(subscribed[0] / static_cast<double>(total[0]), 0.92, 0.02);
  EXPECT_NEAR(subscribed[1] / static_cast<double>(total[1]), 0.30, 0.03);
  EXPECT_NEAR(subscribed[2] / static_cast<double>(total[2]), 0.80, 0.07);
}

TEST(Population, RejectsZeroCount) {
  PopulationConfig pc;
  pc.count = 0;
  EXPECT_THROW(Population::build(pop_world().country, catalog(), pc),
               std::invalid_argument);
}

}  // namespace
}  // namespace tl::devices
