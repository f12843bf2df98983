#include "policy/policy.hpp"

namespace tl::policy {

void HandoverPolicy::begin_ue_day(const PolicyEnv&, const devices::Ue&, int,
                                  UeDayState& state) const {
  state.previous_serving = topology::kInvalidSector;
  state.last_ho_time = 0;
  state.barred_sector = topology::kInvalidSector;
  state.barred_until = 0;
  // Keep scratch capacity across UE-days of the same shard; just empty it.
  state.scratch_sectors.clear();
}

void HandoverPolicy::on_outcome(const PolicyEnv&, const HoOpportunity&, const HoDecision&,
                                bool, UeDayState&) const {}

void HandoverPolicy::resolve_obs() {
  const std::uint64_t epoch = obs::global_epoch();
  if (epoch == obs_epoch_) return;
  obs_epoch_ = epoch;
  obs_decisions_ = obs::counter("tl_policy_decisions_total",
                                "Handover opportunities evaluated by the policy engine");
  obs_handovers_ = obs::counter("tl_policy_handovers_total",
                                "Policy decisions that commanded a handover");
  obs_holds_ = obs::counter("tl_policy_holds_total",
                            "Policy decisions that held the UE on its serving sector");
  obs_overrides_ = obs::counter(
      "tl_policy_overrides_total",
      "Decisions where the policy diverged from the calibrated default target");
}

}  // namespace tl::policy
