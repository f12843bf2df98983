#pragma once

// Policy selection, embedded in core::StudyConfig so a study names its
// handover policy the same way it names its scale or seed. Kept free of the
// policy class headers: everything below is plain data.

#include <cstdint>
#include <string_view>

namespace tl::policy {

enum class PolicyKind : std::uint8_t {
  /// Replays the calibrated pipeline's decision sequence byte-for-byte —
  /// the default, and the reference arm of every A/B experiment.
  kCalibratedBaseline = 0,
  /// Keeps the calibrated decision sequence (same HO opportunities, same
  /// draws) but diverts the handover to the least-loaded candidate sector
  /// whenever the chosen target's modeled utilization is above a guard.
  kLoadBalancing,
};

constexpr std::string_view to_string(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::kCalibratedBaseline: return "calibrated-baseline";
    case PolicyKind::kLoadBalancing: return "load-balancing";
  }
  return "?";
}

struct PolicyConfig {
  PolicyKind kind = PolicyKind::kCalibratedBaseline;
};

}  // namespace tl::policy
