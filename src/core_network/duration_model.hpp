#pragma once

// Handover signaling-time model.
//
// Successful HOs (Fig. 8): intra 4G/5G-NSA completes in tens of ms (median
// 43 ms, p95 ~90 ms); fallback to 3G is an order of magnitude slower
// (median 412 ms, p95 >1 s); fallback to 2G slower still (median ~1 s,
// p95 3.8 s). Failed HOs (Fig. 14b) take cause-specific times: #3/#6 abort
// before initiation (0 ms), #4 rejects at admission (~81 ms median), #1/#2
// drag for seconds, #8 is a ~10 s relocation timeout.

#include "core_network/failure_causes.hpp"
#include "topology/rat.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace tl::corenet {

class DurationModel {
 public:
  DurationModel();

  /// Signaling time (ms) of a successful HO toward `target`.
  double success_duration_ms(topology::ObservedRat target, util::Rng& rng) const;

  /// Signaling time (ms) of a HO that failed with `cause`.
  double failure_duration_ms(CauseId cause, util::Rng& rng) const;

  /// Calibration medians/p95s exposed for tests and benches.
  struct Calibration {
    double median_ms = 0;
    double p95_ms = 0;
  };
  static Calibration success_calibration(topology::ObservedRat target) noexcept;

 private:
  util::LogNormal success_intra_;
  util::LogNormal success_3g_;
  util::LogNormal success_2g_;
  util::LogNormal fail_cancel_;      // #1
  util::LogNormal fail_interfere_;   // #2
  util::LogNormal fail_overload_;    // #4
  util::LogNormal fail_mme_;         // #5
  util::LogNormal fail_ps_to_cs_;    // #7
  util::LogNormal fail_timeout_;     // #8
  util::LogNormal fail_tail_;        // vendor sub-causes
};

}  // namespace tl::corenet
