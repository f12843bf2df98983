// Census synthesis and the spatial index.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "geo/census.hpp"
#include "geo/spatial_index.hpp"
#include "util/rng.hpp"

namespace tl::geo {
namespace {

const Country& small_country() {
  static const Country country = [] {
    CensusConfig cfg;
    cfg.districts = 80;
    cfg.total_population = 12'000'000;
    cfg.seed = 99;
    return synthesize_country(cfg);
  }();
  return country;
}

TEST(Census, DistrictCountAndPopulation) {
  const auto& c = small_country();
  EXPECT_EQ(c.districts().size(), 80u);
  // Rounding per district loses a little; total stays within 1%.
  EXPECT_NEAR(static_cast<double>(c.total_population()), 12e6, 12e6 * 0.01);
}

TEST(Census, AreasPartitionTheCountry) {
  const auto& c = small_country();
  EXPECT_NEAR(c.total_area_km2(), c.width_km() * c.height_km(),
              c.total_area_km2() * 1e-6);
  double postcode_area = 0.0;
  for (const auto& pc : c.postcodes()) postcode_area += pc.area_km2;
  EXPECT_NEAR(postcode_area, c.total_area_km2(), c.total_area_km2() * 1e-6);
}

TEST(Census, RankSizeLawHolds) {
  const auto& c = small_country();
  // District 0 (capital centre) is the most populous.
  for (const auto& d : c.districts()) {
    EXPECT_LE(d.population, c.district(0).population);
  }
  EXPECT_EQ(c.district(0).name, "Capital-Centre");
  EXPECT_EQ(c.district(0).region, Region::kCapital);
}

TEST(Census, UrbanCalibrationLandsNearTargets) {
  const auto& c = small_country();
  // Paper: urban postcodes cover 49.6% of territory and hold most people.
  EXPECT_NEAR(c.urban_territory_share(), 0.496, 0.06);
  EXPECT_GT(c.urban_population_share(), 0.65);
}

TEST(Census, DensitySpansOrdersOfMagnitude) {
  const auto& c = small_country();
  double min_density = std::numeric_limits<double>::infinity();
  double max_density = 0.0;
  for (const auto& d : c.districts()) {
    min_density = std::min(min_density, d.population_density());
    max_density = std::max(max_density, d.population_density());
  }
  EXPECT_GT(max_density / min_density, 100.0);
  EXPECT_EQ(c.densest_district(), c.district(0).id);
}

TEST(Census, PostcodesBelongToTheirDistrict) {
  const auto& c = small_country();
  std::size_t total_postcodes = 0;
  for (const auto& d : c.districts()) {
    std::uint64_t pop = 0;
    for (const PostcodeId id : d.postcodes) {
      EXPECT_EQ(c.postcode(id).district, d.id);
      pop += c.postcode(id).residents;
    }
    EXPECT_EQ(pop, d.population);
    total_postcodes += d.postcodes.size();
  }
  EXPECT_EQ(total_postcodes, c.postcodes().size());
}

TEST(Census, UnreliablePostcodeShareNearThreePercent) {
  const auto& c = small_country();
  std::size_t unreliable = 0;
  for (const auto& pc : c.postcodes()) {
    if (!pc.census_reliable) ++unreliable;
  }
  const double share = static_cast<double>(unreliable) / c.postcodes().size();
  EXPECT_NEAR(share, 0.031, 0.02);
}

TEST(Census, DeterministicForSeed) {
  CensusConfig cfg;
  cfg.districts = 30;
  cfg.total_population = 2'000'000;
  cfg.seed = 123;
  const Country a = synthesize_country(cfg);
  const Country b = synthesize_country(cfg);
  ASSERT_EQ(a.postcodes().size(), b.postcodes().size());
  for (std::size_t i = 0; i < a.postcodes().size(); ++i) {
    EXPECT_EQ(a.postcodes()[i].residents, b.postcodes()[i].residents);
    EXPECT_EQ(a.postcodes()[i].centroid, b.postcodes()[i].centroid);
  }
}

TEST(Census, RejectsBadConfig) {
  CensusConfig cfg;
  cfg.districts = 5;
  EXPECT_THROW(synthesize_country(cfg), std::invalid_argument);
  cfg.districts = 100;
  cfg.total_population = 100;
  EXPECT_THROW(synthesize_country(cfg), std::invalid_argument);
}

TEST(Census, AllRegionsRepresented) {
  const auto& c = small_country();
  std::array<int, 4> counts{};
  for (const auto& d : c.districts()) ++counts[static_cast<std::size_t>(d.region)];
  for (const int n : counts) EXPECT_GT(n, 0);
}

// --- SpatialIndex ------------------------------------------------------------

TEST(SpatialIndex, NearestOnEmptyIndex) {
  const SpatialIndex idx{100.0, 100.0, 5.0};
  EXPECT_EQ(idx.nearest({50, 50}), SpatialIndex::kNotFound);
  EXPECT_TRUE(idx.nearest_k({50, 50}, 3).empty());
}

TEST(SpatialIndex, QueryRadiusIsExact) {
  const std::vector<util::GeoPoint> points{{10, 10}, {12, 10}, {40, 40}};
  const SpatialIndex idx{100.0, 100.0, 5.0, points};
  const auto near = idx.query_radius({10, 10}, 3.0);
  EXPECT_EQ(near.size(), 2u);
  const auto all = idx.query_radius({25, 25}, 100.0);
  EXPECT_EQ(all.size(), 3u);
}

/// One index to check against brute force, and the points to query it at.
/// Item i is points[i].
struct Layout {
  double width_km = 0.0;
  double height_km = 0.0;
  double cell_km = 0.0;
  std::vector<util::GeoPoint> points;
  std::vector<util::GeoPoint> queries;
  /// Every this many queries also asks for more items than the index holds
  /// (the oracle then sorts them all, and the index ranks them all).
  std::size_t all_items_every = 16;
};

SpatialIndex build_index(const Layout& l) {
  return SpatialIndex{l.width_km, l.height_km, l.cell_km, l.points};
}

/// The oracle: the first `k` items by (squared distance, item).
std::vector<std::uint32_t> brute_force(const std::vector<util::GeoPoint>& points,
                                       const util::GeoPoint& q, std::size_t k) {
  std::vector<std::pair<double, std::uint32_t>> all;
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    all.emplace_back(util::squared_distance_km2(points[i], q), i);
  }
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k), all.end());
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < k; ++i) out.push_back(all[i].second);
  return out;
}

util::GeoPoint uniform_point(util::Rng& rng, double x0, double x1, double y0, double y1) {
  return {rng.uniform(x0, x1), rng.uniform(y0, y1)};
}

Layout uniform_layout(std::uint64_t seed) {
  util::Rng rng{seed};
  Layout l{200.0, 150.0, 7.0, {}, {}};
  for (int i = 0; i < 500; ++i) l.points.push_back(uniform_point(rng, 0.0, 200.0, 0.0, 150.0));
  for (int i = 0; i < 200; ++i) l.queries.push_back(uniform_point(rng, 0.0, 200.0, 0.0, 150.0));
  return l;
}

/// Dense Gaussian cores amid sparse rural sites on the deployment's 6 km
/// grid: far from any core, the first hit can sit in a ring's corner while
/// a closer site waits two rings out.
Layout clustered_layout() {
  util::Rng rng{2024};
  Layout l{600.0, 480.0, 6.0, {}, {}};
  std::vector<util::GeoPoint> cores;
  for (int c = 0; c < 8; ++c) cores.push_back(uniform_point(rng, 50.0, 550.0, 50.0, 430.0));
  for (const auto& core : cores) {
    for (int i = 0; i < 40; ++i) {
      l.points.push_back({core.x_km + rng.normal(0.0, 1.5), core.y_km + rng.normal(0.0, 1.5)});
    }
  }
  for (int i = 0; i < 60; ++i) l.points.push_back(uniform_point(rng, 0.0, 600.0, 0.0, 480.0));
  for (int i = 0; i < 4'000; ++i) l.queries.push_back(uniform_point(rng, 0.0, 600.0, 0.0, 480.0));
  for (const auto& core : cores) {
    for (int i = 0; i < 250; ++i) {
      l.queries.push_back({core.x_km + rng.normal(0.0, 8.0), core.y_km + rng.normal(0.0, 8.0)});
    }
  }
  return l;
}

/// A simulator world's sites, queried where its UEs actually go: the home
/// and every trace position of each `stride`-th UE over the study's days.
Layout deployment_layout(const core::StudyConfig& cfg, std::size_t stride) {
  const core::Simulator sim{cfg};
  const auto& country = sim.country();
  Layout l{country.width_km(), country.height_km(), 6.0, {}, {}};
  for (const auto& site : sim.deployment().sites()) l.points.push_back(site.location);
  const auto ues = sim.population().ues();
  for (std::size_t i = 0; i < ues.size(); i += stride) {
    const mobility::UePlan plan = sim.traces().plan_for(ues[i]);
    l.queries.push_back(plan.home);
    for (int day = 0; day < cfg.days; ++day) {
      for (const auto& event : sim.traces().generate(ues[i], plan, day)) {
        l.queries.push_back(event.position);
      }
    }
  }
  return l;
}

/// study_serial's world in the repository benchmark: scale 0.02 on the
/// 320-district bench census. At `scale` 0.1 it is study_wal's world, where
/// crowded cells split.
core::StudyConfig bench_world_config(double scale = 0.02) {
  core::StudyConfig cfg;
  cfg.scale = scale;
  cfg.days = 2;
  cfg.census.districts = 320;
  cfg.census.total_population = 47'000'000;
  cfg.seed = 42;
  cfg.finalize();
  cfg.population.count = 4'000;
  return cfg;
}

/// A 3 km lattice on a 6 km grid (every lattice point on a cell edge or
/// corner, some sites doubled), queried at lattice points and midpoints
/// where two or four sites tie.
Layout ties_layout() {
  Layout l{60.0, 48.0, 6.0, {}, {}};
  for (int y = 0; y <= 16; ++y) {
    for (int x = 0; x <= 20; ++x) {
      l.points.push_back({3.0 * x, 3.0 * y});
      if ((x + y) % 7 == 0) l.points.push_back({3.0 * x, 3.0 * y});
    }
  }
  for (int y = 0; y <= 32; ++y) {
    for (int x = 0; x <= 40; ++x) l.queries.push_back({1.5 * x, 1.5 * y});
  }
  return l;
}

/// Random sites, some placed on cell edges, queried on cell edges, on cell
/// corners and on the grid's own corners.
Layout edges_layout() {
  util::Rng rng{77};
  Layout l{100.0, 70.0, 5.0, {}, {}};
  for (int i = 0; i < 60; ++i) l.points.push_back(uniform_point(rng, 0.0, 100.0, 0.0, 70.0));
  for (int i = 0; i < 20; ++i) {
    l.points.push_back({5.0 * static_cast<double>(rng.below(21)), rng.uniform(0.0, 70.0)});
    l.points.push_back({rng.uniform(0.0, 100.0), 5.0 * static_cast<double>(rng.below(15))});
  }
  for (int y = 0; y <= 14; ++y) {
    for (int x = 0; x <= 20; ++x) {
      l.queries.push_back({5.0 * x, 5.0 * y});
      l.queries.push_back({5.0 * x, rng.uniform(0.0, 70.0)});
      l.queries.push_back({rng.uniform(0.0, 100.0), 5.0 * y});
    }
  }
  for (const util::GeoPoint corner : {util::GeoPoint{0.0, 0.0}, util::GeoPoint{100.0, 0.0},
                                      util::GeoPoint{0.0, 70.0}, util::GeoPoint{100.0, 70.0}}) {
    l.queries.push_back(corner);
  }
  return l;
}

/// A dense cluster inside one 6 km cell, whose candidate list is long
/// enough to split into 8 x 8 sub-cells of 0.75 km: sites on a lattice of
/// sub-cell corners, on sub-cell edges and at random, and equidistant pairs
/// straddling a sub-cell edge; queried on sub-cell edges, corners and
/// centres and on the straddled edges, where the pairs tie.
Layout split_cells_layout() {
  util::Rng rng{31};
  Layout l{60.0, 48.0, 6.0, {}, {}};
  const double x0 = 24.0;
  const double y0 = 18.0;
  const double sub = 0.75;
  for (int j = 0; j <= 8; ++j) {
    for (int i = 0; i <= 8; ++i) l.points.push_back({x0 + sub * i, y0 + sub * j});
  }
  for (int i = 0; i < 60; ++i) {
    const double edge = sub * static_cast<double>(rng.below(9));
    l.points.push_back({x0 + edge, rng.uniform(y0, y0 + 6.0)});
    l.points.push_back({rng.uniform(x0, x0 + 6.0), y0 + edge});
    l.points.push_back(uniform_point(rng, x0, x0 + 6.0, y0, y0 + 6.0));
  }
  std::vector<std::pair<double, double>> straddled;  // (edge x, y) of each pair
  for (int i = 0; i < 30; ++i) {
    const double edge = x0 + sub * static_cast<double>(1 + rng.below(7));
    const double half_gap = rng.uniform(0.01, 0.7);
    const double y = rng.uniform(y0, y0 + 6.0);
    l.points.push_back({edge - half_gap, y});
    l.points.push_back({edge + half_gap, y});
    straddled.emplace_back(edge, y);
  }
  for (int i = 0; i < 40; ++i) l.points.push_back(uniform_point(rng, 0.0, 60.0, 0.0, 48.0));

  for (int j = 0; j <= 16; ++j) {
    for (int i = 0; i <= 16; ++i) {
      l.queries.push_back({x0 + 0.5 * sub * i, y0 + 0.5 * sub * j});
    }
  }
  for (int i = 0; i <= 8; ++i) {
    for (int n = 0; n < 10; ++n) {
      l.queries.push_back({x0 + sub * i, rng.uniform(y0 - 1.0, y0 + 7.0)});
      l.queries.push_back({rng.uniform(x0 - 1.0, x0 + 7.0), y0 + sub * i});
    }
  }
  for (const auto& [edge, y] : straddled) {
    for (const double dy : {0.0, 0.1, -0.3, 0.75, 1.5}) l.queries.push_back({edge, y + dy});
  }
  for (int i = 0; i < 500; ++i) {
    l.queries.push_back(uniform_point(rng, x0 - 6.0, x0 + 12.0, y0 - 6.0, y0 + 12.0));
  }
  return l;
}

/// Sites inside and outside the grid (they land in its edge cells), queried
/// from just outside to very far outside.
Layout outside_layout() {
  util::Rng rng{99};
  Layout l{80.0, 60.0, 6.0, {}, {}};
  for (int i = 0; i < 40; ++i) l.points.push_back(uniform_point(rng, 0.0, 80.0, 0.0, 60.0));
  for (int i = 0; i < 10; ++i) {
    l.points.push_back(uniform_point(rng, -30.0, 0.0, -30.0, 90.0));
    l.points.push_back(uniform_point(rng, 80.0, 120.0, -30.0, 90.0));
  }
  for (int i = 0; i < 500; ++i) {
    const util::GeoPoint q = uniform_point(rng, -200.0, 280.0, -200.0, 260.0);
    if (q.x_km < 0.0 || q.x_km > 80.0 || q.y_km < 0.0 || q.y_km > 60.0) l.queries.push_back(q);
  }
  l.queries.push_back({-1e6, -1e6});
  l.queries.push_back({1e6, 30.0});
  return l;
}

/// Fewer sites than the k the tests ask for.
Layout few_layout() {
  Layout l{50.0, 50.0, 5.0, {{10.0, 10.0}, {40.0, 35.0}}, {}};
  util::Rng rng{5};
  for (int i = 0; i < 100; ++i) l.queries.push_back(uniform_point(rng, -10.0, 60.0, -10.0, 60.0));
  return l;
}

Layout empty_layout() {
  Layout l{100.0, 100.0, 5.0, {}, {}};
  l.queries = {{50.0, 50.0}, {0.0, 0.0}, {-5.0, 120.0}};
  return l;
}

/// A named SpatialIndexProperty input. gtest numbers the instances, but
/// gtest_discover_tests names each ctest test by its printed parameter, so
/// printing a seed as its bare number keeps the uniform cases' names
/// (Seeds/SpatialIndexProperty.NearestMatchesBruteForce/1234). A
/// std::string parameter would print quoted and rename them to /"1234".
struct LayoutName {
  std::string name;
};
void PrintTo(const LayoutName& n, std::ostream* os) { *os << n.name; }

const Layout& layout(const std::string& name) {
  static std::map<std::string, Layout> cache;
  if (const auto it = cache.find(name); it != cache.end()) return it->second;
  Layout l;
  if (name == "clustered") l = clustered_layout();
  else if (name == "test_scale_traces") l = deployment_layout(core::StudyConfig::test_scale(), 8);
  else if (name == "bench_world_traces") l = deployment_layout(bench_world_config(), 16);
  else if (name == "wal_world_traces") {
    l = deployment_layout(bench_world_config(0.1), 16);
    l.all_items_every = 256;  // 2,400 sites: each such query ranks them all
  }
  else if (name == "split_cells") l = split_cells_layout();
  else if (name == "ties") l = ties_layout();
  else if (name == "edges_and_corners") l = edges_layout();
  else if (name == "outside_grid") l = outside_layout();
  else if (name == "fewer_than_k") l = few_layout();
  else if (name == "empty") l = empty_layout();
  else l = uniform_layout(std::stoull(name));
  return cache.emplace(name, std::move(l)).first->second;
}

class SpatialIndexProperty : public ::testing::TestWithParam<LayoutName> {};

TEST_P(SpatialIndexProperty, NearestMatchesBruteForce) {
  const Layout& l = layout(GetParam().name);
  const SpatialIndex idx = build_index(l);
  std::size_t misses = 0;
  for (const auto& q : l.queries) {
    const auto want = brute_force(l.points, q, 1);
    const std::uint32_t got = idx.nearest(q);
    if (got != (want.empty() ? SpatialIndex::kNotFound : want.front())) {
      if (misses++ == 0) ADD_FAILURE() << "first miss at (" << q.x_km << ", " << q.y_km << ")";
    }
  }
  EXPECT_EQ(misses, 0u) << "of " << l.queries.size() << " queries";
}

TEST_P(SpatialIndexProperty, NearestKIsSortedAndComplete) {
  const Layout& l = layout(GetParam().name);
  const SpatialIndex idx = build_index(l);
  std::size_t misses = 0;
  std::vector<std::uint32_t> buffer;
  const auto check = [&](const util::GeoPoint& q, std::size_t k,
                         const std::vector<std::uint32_t>& want) {
    // Both overloads: the vector one, and the span one into a buffer with
    // room for exactly k.
    buffer.assign(k, SpatialIndex::kNotFound);
    buffer.resize(idx.nearest_k(q, std::span<std::uint32_t>{buffer}));
    if ((idx.nearest_k(q, k) != want || buffer != want) && misses++ == 0) {
      ADD_FAILURE() << "first miss at (" << q.x_km << ", " << q.y_km << "), k=" << k;
    }
  };
  for (std::size_t i = 0; i < l.queries.size(); ++i) {
    const util::GeoPoint& q = l.queries[i];
    const auto want = brute_force(l.points, q, 5);
    for (std::size_t k = 1; k <= 5; ++k) {
      check(q, k, {want.begin(), want.begin() + static_cast<std::ptrdiff_t>(
                                                     std::min(k, want.size()))});
    }
    // More than the index holds: every item, in order (on a sample of the
    // queries, since the oracle sorts them all).
    if (i % l.all_items_every == 0) {
      check(q, l.points.size() + 1, brute_force(l.points, q, l.points.size()));
    }
  }
  EXPECT_EQ(misses, 0u) << "of " << l.queries.size() << " queries";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpatialIndexProperty,
                         ::testing::Values(LayoutName{"1"}, LayoutName{"7"}, LayoutName{"1234"}));
INSTANTIATE_TEST_SUITE_P(Layouts, SpatialIndexProperty,
                         ::testing::Values(LayoutName{"clustered"},
                                           LayoutName{"test_scale_traces"},
                                           LayoutName{"bench_world_traces"},
                                           LayoutName{"wal_world_traces"},
                                           LayoutName{"split_cells"}, LayoutName{"ties"},
                                           LayoutName{"edges_and_corners"},
                                           LayoutName{"outside_grid"},
                                           LayoutName{"fewer_than_k"}, LayoutName{"empty"}));

}  // namespace
}  // namespace tl::geo
