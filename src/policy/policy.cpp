#include "policy/policy.hpp"

namespace tl::policy {

void HandoverPolicy::begin_ue_day(const PolicyEnv& env, const devices::Ue& ue, int day,
                                  UeDayState& state) const {
  state.previous_serving = topology::kInvalidSector;
  state.last_ho_time = 0;
  state.barred_sector = topology::kInvalidSector;
  state.barred_until = 0;
  // Policy-private stream: per (seed, ue, day), so decisions stay a pure
  // function of the study seed regardless of sharding or resume point.
  state.rng = util::Rng::derive(env.seed, 0xb011c9u, ue.id, static_cast<std::uint64_t>(day));
  state.penalties = {};
  state.penalty_next = 0;
  // Keep scratch capacity across UE-days of the same shard; just empty it.
  state.scratch_sectors.clear();
  state.scratch_sectors_4g.clear();
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
  obs_penalty_holds_ = obs::counter("tl_policy_penalty_holds_total",
                                    "Holds caused by a per-neighbor penalty timer");
  obs_fallback_suppressed_ = obs::counter(
      "tl_policy_fallback_suppressed_total",
      "Fallback (→3G/→2G) decisions kept on a 4G/5G neighbor instead");
}

}  // namespace tl::policy
