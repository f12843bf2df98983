#pragma once

// The MNO's radio deployment: builds cell sites and sectors over a country,
// calibrated to the paper's topology facts — RAT mix (5G 8.4% / 4G 55% /
// 2G+3G ≈36%), 80% of sectors in urban postcodes, vendor asymmetry across
// regions, and the 2009–2023 deployment-evolution curve of Fig. 3a.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "geo/country.hpp"
#include "geo/spatial_index.hpp"
#include "topology/sector.hpp"

namespace tl::topology {

struct DeploymentConfig {
  /// Linear scale vs the real deployment (1.0 = 24k sites / 350k+ sectors).
  double scale = 0.05;
  std::uint32_t full_scale_sites = 24'000;

  /// Live sector shares per RAT at the study date (Fig. 3a, end of 2023).
  double share_2g = 0.18;
  double share_3g = 0.18;
  double share_4g = 0.55;
  double share_5g = 0.084;

  /// Fraction of sectors installed in urban postcodes (paper: 80%).
  double urban_sector_share = 0.80;

  /// Fraction of rural sites that are legacy-only (2G/3G, no 4G layer) —
  /// the coverage holes behind Fig. 9b's remote districts where up to
  /// 58.1% of HOs fall back to 3G.
  double rural_legacy_site_share = 0.14;

  std::uint64_t seed = 11;
};

class Deployment {
 public:
  static Deployment build(const geo::Country& country, const DeploymentConfig& config);

  std::span<const CellSite> sites() const noexcept { return sites_; }
  std::span<const RadioSector> sectors() const noexcept { return sectors_; }
  const RadioSector& sector(SectorId id) const { return sectors_.at(id); }
  const CellSite& site(SiteId id) const { return sites_.at(id); }

  /// Spatial index over site locations.
  const geo::SpatialIndex& site_index() const noexcept { return site_index_; }

  /// Sector counts per RAT among live sectors.
  std::array<std::uint64_t, 4> sector_count_by_rat() const noexcept { return by_rat_; }
  std::uint64_t live_sector_count() const noexcept { return sectors_.size(); }

  /// Fraction of live sectors in urban postcodes.
  double urban_sector_fraction() const noexcept;

  /// Fig. 3a: live sector counts per RAT for each calendar year, including
  /// since-retired 2G/3G sectors tracked in the historical ledger.
  struct YearCounts {
    int year = 0;
    std::array<std::uint64_t, 4> by_rat{};  // indexed by Rat
    std::uint64_t total() const noexcept {
      return by_rat[0] + by_rat[1] + by_rat[2] + by_rat[3];
    }
  };
  std::vector<YearCounts> evolution(int from_year = 2009, int to_year = 2023) const;

 private:
  /// Edge of the site index's grid cells.
  static constexpr double kSiteCellKm = 6.0;

  Deployment(double width_km, double height_km)
      : site_index_(width_km, height_km, kSiteCellKm) {}

  std::vector<CellSite> sites_;
  std::vector<RadioSector> sectors_;
  /// 2G/3G sectors already decommissioned before the study; they only count
  /// toward the historical evolution curve.
  std::vector<RadioSector> retired_sectors_;
  geo::SpatialIndex site_index_;
  std::array<std::uint64_t, 4> by_rat_{};
  std::uint64_t urban_sectors_ = 0;
};

}  // namespace tl::topology
