#include "topology/deployment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace tl::topology {

namespace {

using tl::util::Rng;

/// Deployment year ranges per RAT, matching Fig. 3a's rollout history.
int sample_deploy_year(Rat rat, Rng& rng) {
  switch (rat) {
    case Rat::kG2: return static_cast<int>(rng.between(1998, 2008));
    case Rat::kG3: return static_cast<int>(rng.between(2009, 2014));
    case Rat::kG4: {
      // 4G rollout accelerates: quadratic-biased draw toward recent years
      // yields the exponential-looking total growth of Fig. 3a.
      const double u = rng.uniform();
      return 2013 + static_cast<int>(std::floor(std::pow(u, 0.55) * 10.0));  // 2013..2022
    }
    case Rat::kG5Nr: return static_cast<int>(rng.between(2019, 2023));
  }
  return 2015;
}

}  // namespace

Deployment Deployment::build(const geo::Country& country, const DeploymentConfig& config) {
  if (config.scale <= 0.0 || config.scale > 1.0) {
    throw std::invalid_argument{"DeploymentConfig: scale must be in (0, 1]"};
  }
  const double share_sum =
      config.share_2g + config.share_3g + config.share_4g + config.share_5g;
  if (std::fabs(share_sum - 1.0) > 0.02) {
    throw std::invalid_argument{"DeploymentConfig: RAT shares must sum to ~1"};
  }

  Deployment dep{country.width_km(), country.height_km()};
  Rng rng = Rng::derive(config.seed, 0xd390u);

  const auto n_sites = static_cast<std::uint32_t>(
      std::max(64.0, config.scale * static_cast<double>(config.full_scale_sites)));

  // --- Allocate sites to postcodes: urban sites follow population, rural
  // sites follow territory (coverage-driven), split 80/20 as in the paper. --
  const auto postcodes = country.postcodes();
  std::vector<double> urban_weight(postcodes.size(), 0.0);
  std::vector<double> rural_weight(postcodes.size(), 0.0);
  for (std::size_t i = 0; i < postcodes.size(); ++i) {
    const auto& pc = postcodes[i];
    if (pc.area_type() == geo::AreaType::kUrban) {
      urban_weight[i] = std::pow(static_cast<double>(pc.residents), 0.92);
    } else {
      rural_weight[i] = pc.area_km2 + 0.002 * static_cast<double>(pc.residents);
    }
  }
  const auto n_urban_sites =
      static_cast<std::uint32_t>(config.urban_sector_share * n_sites);
  const auto n_rural_sites = n_sites - n_urban_sites;

  tl::util::DiscreteSampler urban_sampler{urban_weight};
  tl::util::DiscreteSampler rural_sampler{rural_weight};

  std::vector<geo::PostcodeId> site_postcode;
  site_postcode.reserve(n_sites);
  for (std::uint32_t i = 0; i < n_urban_sites; ++i) {
    site_postcode.push_back(static_cast<geo::PostcodeId>(urban_sampler.sample(rng)));
  }
  for (std::uint32_t i = 0; i < n_rural_sites; ++i) {
    site_postcode.push_back(static_cast<geo::PostcodeId>(rural_sampler.sample(rng)));
  }

  // --- Materialize sites. ----------------------------------------------------
  dep.sites_.reserve(n_sites);
  for (std::uint32_t i = 0; i < n_sites; ++i) {
    const auto& pc = country.postcode(site_postcode[i]);
    const auto& district = country.district_of(pc);
    CellSite site;
    site.id = i;
    site.postcode = pc.id;
    site.district = district.id;
    site.region = district.region;
    site.area_type = pc.area_type();
    const double scatter = std::sqrt(std::max(pc.area_km2, 0.05)) / 2.0;
    site.location = {pc.centroid.x_km + rng.normal(0.0, scatter),
                     pc.centroid.y_km + rng.normal(0.0, scatter)};
    site.location.x_km = std::clamp(site.location.x_km, 0.0, country.width_km());
    site.location.y_km = std::clamp(site.location.y_km, 0.0, country.height_km());
    const auto weights = vendor_weights(site.region);
    site.vendor = static_cast<Vendor>(
        tl::util::DiscreteSampler{weights}.sample(rng));
    dep.sites_.push_back(std::move(site));
  }

  // --- RAT layers per site. ---------------------------------------------------
  // Every site carries a 4G layer; legacy and 5G layers are sampled so the
  // global sector shares land on the configured mix. Propensities skew 2G/3G
  // toward rural sites and 5G toward dense urban ones.
  const auto layer_propensity = [&](Rat rat, const CellSite& site) -> double {
    const auto& pc = country.postcode(site.postcode);
    switch (rat) {
      case Rat::kG2:
      case Rat::kG3:
        return site.area_type == geo::AreaType::kRural ? 1.9 : 0.8;
      case Rat::kG5Nr:
        return site.area_type == geo::AreaType::kUrban
                   ? std::min(pc.population_density(), 12'000.0)
                   : 0.0;
      case Rat::kG4:
        return 1.0;
    }
    return 0.0;
  };

  const auto expected_layers = [&](double share) {
    return share / config.share_4g * static_cast<double>(n_sites);
  };

  std::array<double, 4> propensity_sum{};
  for (const auto& site : dep.sites_) {
    for (const Rat rat : {Rat::kG2, Rat::kG3, Rat::kG5Nr}) {
      propensity_sum[static_cast<std::size_t>(rat)] += layer_propensity(rat, site);
    }
  }
  const std::array<double, 4> layer_target{
      expected_layers(config.share_2g), expected_layers(config.share_3g), 0.0,
      expected_layers(config.share_5g)};

  SectorId next_sector = 0;
  Rng layer_rng = Rng::derive(config.seed, 0x1a7e25u);
  const auto add_layer = [&](CellSite& site, Rat rat) {
    // Tri-sector layer; dense urban 4G/5G sites add extra carriers.
    int n_sec = 3;
    if (site.area_type == geo::AreaType::kUrban &&
        (rat == Rat::kG4 || rat == Rat::kG5Nr)) {
      n_sec += static_cast<int>(layer_rng.below(4));  // 3..6
    } else if (layer_rng.chance(0.15)) {
      n_sec = 2;  // small rural installation
    }
    for (int s = 0; s < n_sec; ++s) {
      RadioSector sector;
      sector.id = next_sector++;
      sector.site = site.id;
      sector.rat = rat;
      sector.vendor = site.vendor;
      sector.postcode = site.postcode;
      sector.district = site.district;
      sector.region = site.region;
      sector.area_type = site.area_type;
      sector.azimuth_deg = static_cast<float>(
          std::fmod(120.0 * s + layer_rng.uniform(-20.0, 20.0) + 360.0, 360.0));
      sector.deploy_year = static_cast<std::uint16_t>(sample_deploy_year(rat, layer_rng));
      sector.capacity_booster =
          layer_rng.chance(site.area_type == geo::AreaType::kUrban ? 0.28 : 0.05);
      sector.capacity = static_cast<float>(std::exp(layer_rng.normal(0.0, 0.35)));
      site.sectors.push_back(sector.id);
      dep.sectors_.push_back(std::move(sector));
    }
  };

  // Density rank per district (0 = densest, 1 = sparsest): the 4G upgrade
  // reached the remotest districts last, so legacy-only sites concentrate
  // there — the source of Fig. 9b's least-dense-district fallback extremes.
  std::vector<std::pair<double, geo::DistrictId>> density_rank;
  for (const auto& d : country.districts()) {
    density_rank.emplace_back(d.population_density(), d.id);
  }
  std::sort(density_rank.begin(), density_rank.end());
  std::vector<double> sparseness(country.districts().size(), 0.0);
  for (std::size_t i = 0; i < density_rank.size(); ++i) {
    sparseness[density_rank[i].second] =
        1.0 - static_cast<double>(i) / static_cast<double>(density_rank.size() - 1);
  }

  for (auto& site : dep.sites_) {
    // A slice of rural sites never got the 4G upgrade: 2G/3G coverage-only
    // installations that force fallbacks in the surrounding postcodes,
    // heavily skewed toward the sparsest districts.
    const double rank = sparseness[site.district];
    const double p_legacy =
        config.rural_legacy_site_share * (0.2 + 2.6 * rank * rank * rank);
    if (site.area_type == geo::AreaType::kRural && layer_rng.chance(p_legacy)) {
      add_layer(site, Rat::kG2);
      add_layer(site, Rat::kG3);
      continue;
    }
    add_layer(site, Rat::kG4);
    for (const Rat rat : {Rat::kG2, Rat::kG3, Rat::kG5Nr}) {
      const auto idx = static_cast<std::size_t>(rat);
      if (propensity_sum[idx] <= 0.0) continue;
      const double p =
          std::min(1.0, layer_target[idx] * layer_propensity(rat, site) /
                            propensity_sum[idx]);
      if (layer_rng.chance(p)) add_layer(site, rat);
    }
  }

  // --- Historical ledger: 2G/3G sectors retired before the study, so the
  // Fig. 3a curve shows the legacy peak and gradual decommissioning. --------
  Rng ledger_rng = Rng::derive(config.seed, 0x9057u);
  for (const auto& sector : dep.sectors_) {
    if (sector.rat != Rat::kG2 && sector.rat != Rat::kG3) continue;
    // Each surviving legacy sector stands for ~0.75 already-retired peers.
    if (!ledger_rng.chance(0.75)) continue;
    RadioSector ghost = sector;
    ghost.id = 0;  // not addressable; evolution-only
    ghost.deploy_year = static_cast<std::uint16_t>(
        sample_deploy_year(sector.rat, ledger_rng));
    ghost.decommission_year =
        static_cast<std::uint16_t>(ledger_rng.between(2016, 2023));
    dep.retired_sectors_.push_back(std::move(ghost));
  }

  // --- Indexes and tallies. ----------------------------------------------------
  for (const auto& sector : dep.sectors_) {
    dep.by_rat_[static_cast<std::size_t>(sector.rat)]++;
    if (sector.area_type == geo::AreaType::kUrban) ++dep.urban_sectors_;
  }
  // Built once, before any worker can query it: the index is immutable.
  std::vector<tl::util::GeoPoint> locations;
  locations.reserve(dep.sites_.size());
  for (const auto& site : dep.sites_) locations.push_back(site.location);  // item = site id
  dep.site_index_ =
      geo::SpatialIndex{country.width_km(), country.height_km(), kSiteCellKm, locations};
  return dep;
}

double Deployment::urban_sector_fraction() const noexcept {
  return sectors_.empty()
             ? 0.0
             : static_cast<double>(urban_sectors_) / static_cast<double>(sectors_.size());
}

std::vector<Deployment::YearCounts> Deployment::evolution(int from_year,
                                                          int to_year) const {
  std::vector<YearCounts> out;
  for (int year = from_year; year <= to_year; ++year) {
    YearCounts yc;
    yc.year = year;
    for (const auto& sector : sectors_) {
      if (sector.live_in(year)) yc.by_rat[static_cast<std::size_t>(sector.rat)]++;
    }
    for (const auto& sector : retired_sectors_) {
      if (sector.live_in(year)) yc.by_rat[static_cast<std::size_t>(sector.rat)]++;
    }
    out.push_back(yc);
  }
  return out;
}

}  // namespace tl::topology
