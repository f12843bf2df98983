#include "policy/policies.hpp"

#include <span>
#include <stdexcept>

namespace tl::policy {

using topology::kInvalidSector;

namespace {

/// The selector's coverage key: the postcode of the nearest site. With no
/// sites at all, site() throws.
geo::PostcodeId nearest_postcode(const PolicyEnv& env, std::span<const topology::SiteId> near) {
  return env.deployment->site(near.empty() ? geo::SpatialIndex::kNotFound : near.front())
      .postcode;
}

}  // namespace

HoDecision CalibratedBaselinePolicy::decide(const PolicyEnv& env, const HoOpportunity& opp,
                                            UeDayState& state, util::Rng& rng) const {
  obs_decisions_.inc();
  // The legacy sequence, draw for draw: one uniform in the selector, then
  // pick_sector draws per candidate site inside locate().
  ran::SectorLocator::NearSites buffer;
  const auto near = env.locator->near_sites(opp.position, buffer);
  const ran::TargetDecision td =
      env.selector->decide(*opp.ue, nearest_postcode(env, near), opp.voice_active, rng);
  const topology::SectorId target =
      env.locator->locate(near, td.target_rat, *opp.ue, opp.day, opp.bin, rng);

  HoDecision d;
  d.target_rat = td.target_rat;
  d.srvcc = td.srvcc;
  if (!ran_guards_allow(env, opp, state, target)) {
    obs_holds_.inc();
    return d;
  }
  d.handover = true;
  d.target = target;
  obs_handovers_.inc();
  return d;
}

HoDecision LoadBalancingPolicy::decide(const PolicyEnv& env, const HoOpportunity& opp,
                                       UeDayState& state, util::Rng& rng) const {
  obs_decisions_.inc();
  // The calibrated decision sequence, draw for draw — the HO opportunity
  // stream is the baseline's (common random numbers), only the target of an
  // overload-bound handover changes.
  ran::SectorLocator::NearSites buffer;
  const auto near = env.locator->near_sites(opp.position, buffer);
  const ran::TargetDecision td =
      env.selector->decide(*opp.ue, nearest_postcode(env, near), opp.voice_active, rng);
  topology::SectorId target =
      env.locator->locate(near, td.target_rat, *opp.ue, opp.day, opp.bin, rng);

  HoDecision d;
  d.target_rat = td.target_rat;
  d.srvcc = td.srvcc;
  if (!ran_guards_allow(env, opp, state, target)) {
    obs_holds_.inc();
    return d;
  }

  // Divert: when the chosen target is hotter than the guard, re-target the
  // least-loaded candidate of the same class (strict < keeps utilization
  // ties on the nearer site; serving and guard-blocked sectors excluded).
  const double target_util =
      env.load->utilization(env.deployment->sector(target), opp.day, opp.bin);
  if (target_util > kOverloadGuard) {
    auto& cand = state.scratch_sectors;
    env.locator->candidates(near, td.target_rat, *opp.ue, opp.day, opp.bin, cand);
    topology::SectorId best = kInvalidSector;
    double best_util = target_util;
    for (const topology::SectorId sid : cand) {
      if (sid == target || !ran_guards_allow(env, opp, state, sid)) continue;
      const double u =
          env.load->utilization(env.deployment->sector(sid), opp.day, opp.bin);
      if (u < best_util) {
        best_util = u;
        best = sid;
      }
    }
    if (best != kInvalidSector) {
      target = best;
      obs_overrides_.inc();
    }
  }

  d.handover = true;
  d.target = target;
  obs_handovers_.inc();
  return d;
}

std::unique_ptr<HandoverPolicy> make_policy(const PolicyConfig& config) {
  switch (config.kind) {
    case PolicyKind::kCalibratedBaseline:
      return std::make_unique<CalibratedBaselinePolicy>();
    case PolicyKind::kLoadBalancing:
      return std::make_unique<LoadBalancingPolicy>();
  }
  throw std::invalid_argument{"unknown policy kind"};
}

}  // namespace tl::policy
