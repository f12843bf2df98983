#include "core_network/failure_model.hpp"

#include <algorithm>
#include <cmath>

#include "util/distributions.hpp"
#include "util/hash.hpp"

namespace tl::corenet {

double FailureModel::region_multiplier(geo::Region region) noexcept {
  // Calibrated against the Table 5 region coefficients: West runs markedly
  // hotter (coef +0.40), North slightly cooler, relative to the capital.
  switch (region) {
    case geo::Region::kCapital: return 1.00;
    case geo::Region::kNorth: return 0.93;
    case geo::Region::kSouth: return 0.98;
    case geo::Region::kWest: return 1.49;
  }
  return 1.0;
}

double FailureModel::sector_day_multiplier(std::uint32_t sector, int day,
                                           topology::ObservedRat target) const noexcept {
  const std::uint64_t h = util::anonymize(
      static_cast<std::uint64_t>(sector) * 1'000'003ULL + static_cast<std::uint64_t>(day),
      config_.seed);
  // Map the hash to a uniform in (0,1), then through the normal quantile to
  // a deterministic lognormal draw with median 1.
  const double u = (static_cast<double>(h >> 11) + 0.5) * 0x1.0p-53;
  const double sigma = target == topology::ObservedRat::kG45Nsa
                           ? config_.sector_day_sigma_intra
                           : config_.sector_day_sigma;
  return std::exp(sigma * util::normal_quantile(u));
}

double FailureModel::failure_probability(const FailureContext& context) const noexcept {
  double base = config_.base_intra;
  switch (context.target) {
    case topology::ObservedRat::kG45Nsa: base = config_.base_intra; break;
    case topology::ObservedRat::kG3: base = config_.base_3g; break;
    case topology::ObservedRat::kG2: base = config_.base_2g; break;
  }
  double p = base;
  p *= sector_day_multiplier(context.source_sector, context.day, context.target);
  p *= topology::vendor_hof_multiplier(context.vendor);
  p *= context.area == geo::AreaType::kRural ? config_.rural_multiplier : 1.0;
  p *= region_multiplier(context.region);
  p *= 1.0 + 2.5 * std::clamp(context.overload, 0.0, 1.0);
  p *= std::max(context.ue_hof_multiplier, 0.0);
  if (faults_ != nullptr && !faults_->empty()) {
    p *= faults_->hof_multiplier(context.vendor, context.time);
  }
  return std::clamp(p, 0.0, 0.92);
}

}  // namespace tl::corenet
