// Deployment builder and energy saving.

#include <gtest/gtest.h>

#include <map>

#include "geo/census.hpp"
#include "topology/deployment.hpp"
#include "topology/energy_saving.hpp"

namespace tl::topology {
namespace {

struct World {
  geo::Country country;
  Deployment deployment;
};

const World& world() {
  static const World w = [] {
    geo::CensusConfig cc;
    cc.districts = 80;
    cc.total_population = 12'000'000;
    cc.seed = 99;
    geo::Country country = geo::synthesize_country(cc);
    DeploymentConfig dc;
    dc.scale = 0.03;  // ~720 sites
    dc.seed = 7;
    Deployment dep = Deployment::build(country, dc);
    return World{std::move(country), std::move(dep)};
  }();
  return w;
}

TEST(Deployment, SiteAndSectorCounts) {
  const auto& dep = world().deployment;
  EXPECT_NEAR(static_cast<double>(dep.sites().size()), 0.03 * 24'000, 2.0);
  // ~4-7 sectors per site once multi-layer sites are counted.
  const double per_site =
      static_cast<double>(dep.sectors().size()) / dep.sites().size();
  EXPECT_GT(per_site, 3.0);
  EXPECT_LT(per_site, 12.0);
}

TEST(Deployment, RatMixMatchesPaper) {
  const auto& dep = world().deployment;
  const auto by_rat = dep.sector_count_by_rat();
  const double total = static_cast<double>(dep.live_sector_count());
  EXPECT_NEAR(by_rat[static_cast<std::size_t>(Rat::kG4)] / total, 0.55, 0.08);
  EXPECT_NEAR(by_rat[static_cast<std::size_t>(Rat::kG2)] / total, 0.18, 0.06);
  EXPECT_NEAR(by_rat[static_cast<std::size_t>(Rat::kG3)] / total, 0.18, 0.06);
  EXPECT_NEAR(by_rat[static_cast<std::size_t>(Rat::kG5Nr)] / total, 0.084, 0.05);
}

TEST(Deployment, UrbanSectorShareNear80Percent) {
  EXPECT_NEAR(world().deployment.urban_sector_fraction(), 0.80, 0.06);
}

TEST(Deployment, FiveGOnlyInUrbanSites) {
  for (const auto& s : world().deployment.sectors()) {
    if (s.rat == Rat::kG5Nr) EXPECT_EQ(s.area_type, geo::AreaType::kUrban);
  }
}

TEST(Deployment, SectorsInheritSiteAttributes) {
  const auto& dep = world().deployment;
  for (const auto& sector : dep.sectors()) {
    const auto& site = dep.site(sector.site);
    EXPECT_EQ(sector.vendor, site.vendor);
    EXPECT_EQ(sector.postcode, site.postcode);
    EXPECT_EQ(sector.region, site.region);
  }
}

TEST(Deployment, VendorMixFollowsRegions) {
  const auto& dep = world().deployment;
  std::map<geo::Region, std::map<Vendor, int>> counts;
  for (const auto& site : dep.sites()) ++counts[site.region][site.vendor];
  // The dominant configured vendor should dominate in each region with
  // enough sites (West -> V3, North -> V2).
  if (counts[geo::Region::kWest].size() > 1) {
    int total = 0;
    for (const auto& [v, n] : counts[geo::Region::kWest]) total += n;
    EXPECT_GT(counts[geo::Region::kWest][Vendor::kV3], total / 3);
  }
}

TEST(Deployment, EvolutionShowsGrowthAndLegacyDecline) {
  const auto evo = world().deployment.evolution(2009, 2023);
  ASSERT_EQ(evo.size(), 15u);
  // Total deployment grows massively over the window.
  EXPECT_GT(evo.back().total(), 3 * evo.front().total());
  // 2G peaked early and declines after decommissioning starts.
  const auto g2_2015 = evo[6].by_rat[static_cast<std::size_t>(Rat::kG2)];
  const auto g2_2023 = evo.back().by_rat[static_cast<std::size_t>(Rat::kG2)];
  EXPECT_LT(g2_2023, g2_2015);
  // 5G exists only from 2019.
  EXPECT_EQ(evo[9].by_rat[static_cast<std::size_t>(Rat::kG5Nr)], 0u);  // 2018
  EXPECT_GT(evo.back().by_rat[static_cast<std::size_t>(Rat::kG5Nr)], 0u);
  // Growth 2018 -> 2023 in the ~59% ballpark the paper reports.
  const double growth = static_cast<double>(evo.back().total()) /
                        static_cast<double>(evo[9].total());
  EXPECT_GT(growth, 1.2);
  EXPECT_LT(growth, 2.5);
}

TEST(Deployment, RejectsBadScale) {
  DeploymentConfig dc;
  dc.scale = 0.0;
  EXPECT_THROW(Deployment::build(world().country, dc), std::invalid_argument);
  dc.scale = 0.01;
  dc.share_4g = 0.9;  // shares no longer sum to 1
  EXPECT_THROW(Deployment::build(world().country, dc), std::invalid_argument);
}

TEST(Rat, ObservationCollapses4gAnd5g) {
  EXPECT_EQ(observe(Rat::kG4), ObservedRat::kG45Nsa);
  EXPECT_EQ(observe(Rat::kG5Nr), ObservedRat::kG45Nsa);
  EXPECT_EQ(observe(Rat::kG2), ObservedRat::kG2);
  EXPECT_EQ(observe(Rat::kG3), ObservedRat::kG3);
}

TEST(Rat, SupportLattice) {
  EXPECT_TRUE(supports(RatSupport::kUpTo2G, Rat::kG2));
  EXPECT_FALSE(supports(RatSupport::kUpTo2G, Rat::kG3));
  EXPECT_TRUE(supports(RatSupport::kUpTo4G, Rat::kG4));
  EXPECT_FALSE(supports(RatSupport::kUpTo4G, Rat::kG5Nr));
  EXPECT_TRUE(supports(RatSupport::kUpTo5G, Rat::kG5Nr));
}

TEST(EnergySaving, NonBoostersAlwaysActive) {
  const EnergySavingPolicy policy{1};
  RadioSector s;
  s.id = 42;
  s.capacity_booster = false;
  for (int bin = 0; bin < 48; ++bin) EXPECT_TRUE(policy.is_active(s, 0, bin));
}

TEST(EnergySaving, PlateauKeepsAlmostEverythingOn) {
  // 08:00-17:00 sleeps only ~3% of boosters; with a 25% booster share that
  // is ~99% of all sectors active, as in Fig. 7 (bottom).
  EXPECT_NEAR(EnergySavingPolicy::expected_active_fraction(0.25, 20), 0.9925, 0.005);
  EXPECT_LT(EnergySavingPolicy::expected_active_fraction(0.25, 2), 0.85);
}

TEST(EnergySaving, EveningDeclineIsMonotone) {
  for (int bin = 35; bin < 48; ++bin) {
    EXPECT_GE(EnergySavingPolicy::booster_sleep_fraction(bin),
              EnergySavingPolicy::booster_sleep_fraction(bin - 1));
  }
}

TEST(EnergySaving, StableAcrossDaysPerSector) {
  const EnergySavingPolicy policy{7};
  RadioSector s;
  s.id = 1001;
  s.capacity_booster = true;
  for (int bin = 0; bin < 48; ++bin) {
    EXPECT_EQ(policy.is_active(s, 0, bin), policy.is_active(s, 13, bin));
  }
}

TEST(EnergySaving, SleepFractionRanksBoosters) {
  const EnergySavingPolicy policy{7};
  int active_night = 0, active_noon = 0, boosters = 0;
  for (const auto& s : world().deployment.sectors()) {
    if (!s.capacity_booster) continue;
    ++boosters;
    active_night += policy.is_active(s, 0, 4) ? 1 : 0;
    active_noon += policy.is_active(s, 0, 24) ? 1 : 0;
  }
  ASSERT_GT(boosters, 50);
  EXPECT_LT(active_night, active_noon);
  EXPECT_NEAR(static_cast<double>(active_noon) / boosters, 0.97, 0.03);
}

}  // namespace
}  // namespace tl::topology
