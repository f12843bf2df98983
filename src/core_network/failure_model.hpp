#pragma once

// The generative HOF-rate model (§6.3's ground truth).
//
// Per-handover failure probability = base rate of the target RAT class
// (medians from the paper's sector-day dataset: 0.04% intra, 5.85% to 3G,
// 21.42% to 2G) x a stable lognormal sector-day multiplier x vendor, area,
// region, load-hour and per-device effects. The analysis layer must then
// *recover* these effects from the simulated records — the Table 4/5/7/8/9
// regressions and the ANOVA/Kruskal-Wallis tests.

#include <cstdint>

#include "faults/fault_schedule.hpp"
#include "geo/district.hpp"
#include "geo/region.hpp"
#include "topology/rat.hpp"
#include "topology/vendor.hpp"
#include "util/sim_time.hpp"

namespace tl::corenet {

struct FailureContext {
  topology::ObservedRat target = topology::ObservedRat::kG45Nsa;
  topology::Vendor vendor = topology::Vendor::kV1;
  geo::AreaType area = geo::AreaType::kUrban;
  geo::Region region = geo::Region::kCapital;
  std::uint32_t source_sector = 0;
  int day = 0;
  /// Exact attempt time; lets the fault schedule match incident windows at
  /// finer than day granularity.
  util::TimestampMs time = 0;
  /// Target-sector overload rejection probability (LoadModel output).
  double overload = 0.0;
  /// Per-device HOF multiplier (manufacturer x individual).
  double ue_hof_multiplier = 1.0;
};

struct FailureModelConfig {
  /// Median per-HO failure probability per target class.
  double base_intra = 4.0e-4;
  double base_3g = 5.85e-2;
  double base_2g = 0.2142;
  /// Log-scale sigma of the stable sector-day multiplier. Intra 4G/5G HOFs
  /// are burstier (radio-layer incidents strike individual sector-days), so
  /// their dispersion is larger: medians stay at the configured bases while
  /// the national failure volume lands on the paper's 75/25 split between
  /// the 3G path and the intra path.
  double sector_day_sigma = 1.1;
  double sector_day_sigma_intra = 1.9;
  /// Rural multiplier (urban = 1).
  double rural_multiplier = 1.30;
  std::uint64_t seed = 0xf41;
};

class FailureModel {
 public:
  explicit FailureModel(const FailureModelConfig& config = {}) : config_(config) {}

  /// Probability that this handover fails; clamped to [0, 0.92].
  double failure_probability(const FailureContext& context) const noexcept;

  /// Stable lognormal multiplier for (sector, day); median 1. Deterministic,
  /// so every HO through the same sector on the same day shares the same
  /// "bad day" factor — which is what creates the sector-day HOF-rate
  /// dispersion of Table 6 / Fig. 16.
  double sector_day_multiplier(std::uint32_t sector, int day,
                               topology::ObservedRat target) const noexcept;

  static double region_multiplier(geo::Region region) noexcept;

  /// Installs (or clears) a fault-injection schedule; borrowed. Active bug
  /// waves on an attempt's source vendor multiply its failure probability,
  /// so injected faults produce records, causes and durations exactly like
  /// organic failures.
  void set_fault_schedule(const faults::FaultSchedule* schedule) noexcept {
    faults_ = schedule;
  }

  const FailureModelConfig& config() const noexcept { return config_; }

 private:
  FailureModelConfig config_;
  const faults::FaultSchedule* faults_ = nullptr;
};

}  // namespace tl::corenet
