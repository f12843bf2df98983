#include "core/config.hpp"

#include <algorithm>
#include <cmath>

namespace tl::core {

void StudyConfig::finalize() {
  census.seed = seed * 31 + 1;
  deployment.seed = seed * 31 + 2;
  catalog.seed = seed * 31 + 3;
  population.seed = seed * 31 + 4;

  deployment.scale = scale;
  population.count = static_cast<std::uint32_t>(
      std::max(2'000.0, scale * kFullScaleUes));
  // The synthetic census keeps its resident counts at national scale (the
  // urban threshold of 10k residents is absolute); only the MNO-side
  // entities (sites, UEs) shrink.
}

StudyConfig StudyConfig::test_scale() {
  StudyConfig cfg;
  cfg.scale = 0.004;  // ~96 sites, ~1.4k sectors
  cfg.days = 2;
  cfg.census.districts = 40;
  cfg.census.total_population = 6'000'000;
  cfg.finalize();
  cfg.population.count = 3'000;
  return cfg;
}

StudyConfig StudyConfig::bench_scale() {
  StudyConfig cfg;
  cfg.scale = 0.05;  // 1.2k sites, ~18k sectors
  cfg.days = 7;
  cfg.census.districts = 320;
  cfg.census.total_population = 47'000'000;
  cfg.finalize();
  cfg.population.count = 60'000;
  return cfg;
}

}  // namespace tl::core
