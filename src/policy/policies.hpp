#pragma once

// The two stock handover policies and their factory. See policy.hpp for
// the determinism contract each implementation honors.

#include <memory>

#include "policy/config.hpp"
#include "policy/policy.hpp"

namespace tl::policy {

/// Replays the calibrated pipeline's decision sequence exactly: the same
/// selector draw, the same locate() draws, the same hold checks in the same
/// order — proven byte-identical (records, WAL bytes, checkpoints) to the
/// pre-policy-engine stream at every thread count and across kill/resume.
class CalibratedBaselinePolicy final : public HandoverPolicy {
 public:
  const char* name() const noexcept override { return "calibrated-baseline"; }
  HoDecision decide(const PolicyEnv& env, const HoOpportunity& opp, UeDayState& state,
                    util::Rng& rng) const override;
};

/// Sector-load-aware target selection: replays the calibrated decision
/// sequence, then diverts any handover whose target is hotter than the
/// overload guard to the least-loaded candidate of the same RAT class.
/// Directly attacks the target-overload failure cause (#4) behind the rural
/// peak-hour HOF spike while leaving the HO opportunity stream untouched
/// (common random numbers with the baseline arm).
class LoadBalancingPolicy final : public HandoverPolicy {
 public:
  /// Divert when the chosen target's utilization exceeds this. The failure
  /// model's overload ramp starts at 0.92; guarding below it re-targets
  /// before rejections begin.
  static constexpr double kOverloadGuard = 0.85;
  /// Nearest sites enumerated for the alternative-candidate set: the
  /// decision's one lookup, which locate() walks too.
  static constexpr std::size_t kCandidateSites = 3;
  static_assert(kCandidateSites == ran::SectorLocator::kNearSites,
                "candidates() walks the list the decision looked up for locate()");

  const char* name() const noexcept override { return "load-balancing"; }
  HoDecision decide(const PolicyEnv& env, const HoOpportunity& opp, UeDayState& state,
                    util::Rng& rng) const override;
};

/// Instantiates the policy named by `config.kind`.
std::unique_ptr<HandoverPolicy> make_policy(const PolicyConfig& config);

}  // namespace tl::policy
