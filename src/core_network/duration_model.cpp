#include "core_network/duration_model.hpp"

namespace tl::corenet {

namespace {

/// (median, p95) in milliseconds.
constexpr double kIntraMedian = 43.0, kIntraP95 = 90.0;
constexpr double k3gMedian = 412.0, k3gP95 = 1'050.0;
constexpr double k2gMedian = 1'000.0, k2gP95 = 3'800.0;
constexpr double kCancelMedian = 1'500.0, kCancelP95 = 5'500.0;
constexpr double kInterfereMedian = 1'900.0, kInterfereP95 = 6'000.0;
constexpr double kOverloadMedian = 81.0, kOverloadP95 = 97.0;
constexpr double kMmeMedian = 350.0, kMmeP95 = 1'600.0;
constexpr double kPsToCsMedian = 600.0, kPsToCsP95 = 2'400.0;
constexpr double kTimeoutMedian = 10'050.0, kTimeoutP95 = 10'180.0;
constexpr double kTailMedian = 250.0, kTailP95 = 2'200.0;

}  // namespace

DurationModel::DurationModel()
    : success_intra_(util::LogNormal::from_median_p95(kIntraMedian, kIntraP95)),
      success_3g_(util::LogNormal::from_median_p95(k3gMedian, k3gP95)),
      success_2g_(util::LogNormal::from_median_p95(k2gMedian, k2gP95)),
      fail_cancel_(util::LogNormal::from_median_p95(kCancelMedian, kCancelP95)),
      fail_interfere_(util::LogNormal::from_median_p95(kInterfereMedian, kInterfereP95)),
      fail_overload_(util::LogNormal::from_median_p95(kOverloadMedian, kOverloadP95)),
      fail_mme_(util::LogNormal::from_median_p95(kMmeMedian, kMmeP95)),
      fail_ps_to_cs_(util::LogNormal::from_median_p95(kPsToCsMedian, kPsToCsP95)),
      fail_timeout_(util::LogNormal::from_median_p95(kTimeoutMedian, kTimeoutP95)),
      fail_tail_(util::LogNormal::from_median_p95(kTailMedian, kTailP95)) {}

double DurationModel::success_duration_ms(topology::ObservedRat target,
                                          util::Rng& rng) const {
  switch (target) {
    case topology::ObservedRat::kG45Nsa: return success_intra_.sample(rng);
    case topology::ObservedRat::kG3: return success_3g_.sample(rng);
    case topology::ObservedRat::kG2: return success_2g_.sample(rng);
  }
  return success_intra_.sample(rng);
}

double DurationModel::failure_duration_ms(CauseId cause, util::Rng& rng) const {
  switch (cause) {
    case kCause1SourceCancelled: return fail_cancel_.sample(rng);
    case kCause2InterferingInitialUe: return fail_interfere_.sample(rng);
    case kCause3InvalidTargetId: return 0.0;  // rejected before initiation
    case kCause4TargetLoadTooHigh: return fail_overload_.sample(rng);
    case kCause5MmeDetectedFailure: return fail_mme_.sample(rng);
    case kCause6SrvccNotSubscribed: return 0.0;  // service check precedes signaling
    case kCause7PsToCsFailure: return fail_ps_to_cs_.sample(rng);
    case kCause8RelocationTimeout: return fail_timeout_.sample(rng);
    default: return fail_tail_.sample(rng);
  }
}

DurationModel::Calibration DurationModel::success_calibration(
    topology::ObservedRat target) noexcept {
  switch (target) {
    case topology::ObservedRat::kG45Nsa: return {kIntraMedian, kIntraP95};
    case topology::ObservedRat::kG3: return {k3gMedian, k3gP95};
    case topology::ObservedRat::kG2: return {k2gMedian, k2gP95};
  }
  return {};
}

}  // namespace tl::corenet
