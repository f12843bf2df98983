#pragma once

// Pluggable handover decision engine.
//
// The simulator's hot loop hands every handover opportunity — one mobility
// trace event of one UE-day — to a HandoverPolicy and executes whatever it
// decides through the unchanged EPC state machine, so the paper's measured
// marginals (→3G carrying 75% of HOFs, the rural peak-hour spike, ...) can
// be *explained* by swapping the decision rule instead of only replayed.
//
// Determinism contract:
//  - CalibratedBaselinePolicy replays the legacy decision sequence with the
//    simulator's own per-UE-day RNG stream: the record stream, WAL bytes and
//    checkpoints are byte-identical to the pre-policy-engine pipeline at any
//    thread count and across kill/resume.
//  - LoadBalancingPolicy makes the baseline's draws, in the baseline's
//    order, and ranks alternatives with draw-free candidate enumeration
//    (SectorLocator::candidates), so the arms of an A/B experiment face
//    common random numbers and its output is a pure function of
//    (config, seed).
//  - ALL mutable policy state lives in UeDayState, created fresh per UE-day:
//    policies are shared const across worker threads, and cross-day state
//    would break the day-as-independent-replay-unit contract that sharding,
//    checkpoints and kill/resume depend on. Checkpoint formats are therefore
//    unchanged under every policy.

#include <cstdint>
#include <vector>

#include "devices/population.hpp"
#include "geo/district.hpp"
#include "obs/metrics.hpp"
#include "ran/load.hpp"
#include "ran/sector_locator.hpp"
#include "ran/target_selection.hpp"
#include "topology/deployment.hpp"
#include "util/geo_point.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace tl::policy {

/// The world a policy may consult, borrowed from the simulator. Everything
/// is const: policies observe, the simulator executes.
struct PolicyEnv {
  const topology::Deployment* deployment = nullptr;
  const ran::TargetSelector* selector = nullptr;
  const ran::SectorLocator* locator = nullptr;
  const ran::LoadModel* load = nullptr;
  /// RAN-level knobs the baseline replicates exactly (StudyConfig mirrors).
  bool suppress_ping_pong = false;
  std::int64_t ping_pong_window_ms = 5'000;
};

/// One handover opportunity. It carries the event's position, not its
/// nearest sites: decide() looks the position up once and serves the
/// selector's postcode key, locate() and candidates() from that one list.
struct HoOpportunity {
  const devices::Ue* ue = nullptr;
  topology::SectorId serving = topology::kInvalidSector;
  util::GeoPoint position{};
  /// Postcode of the site nearest the event. No policy reads it (decide()
  /// takes it from its own lookup) and the simulator leaves it 0; only
  /// perfbench's sampled replay still writes it, and it goes with that
  /// replay.
  geo::PostcodeId postcode = 0;
  util::TimestampMs time = 0;
  int day = 0;
  int bin = 0;  ///< half-hour bin within the day
  bool voice_active = false;
};

/// What the policy decided for the opportunity. handover == false means the
/// UE holds on its serving sector (no record is emitted — exactly the legacy
/// `continue` cases). When handover == true, `target` is a valid sector
/// different from serving and `target_rat`/`srvcc` feed the HO attempt.
struct HoDecision {
  bool handover = false;
  topology::SectorId target = topology::kInvalidSector;
  topology::ObservedRat target_rat = topology::ObservedRat::kG45Nsa;
  bool srvcc = false;
};

/// Per-UE-day policy state. The simulator owns one per simulate_ue_day call
/// and maintains the common RAN-level fields (previous serving, barring);
/// policies keep *all* private mutable state here too — see the determinism
/// contract above.
struct UeDayState {
  // Ping-pong suppression state: the sector the UE most recently left.
  topology::SectorId previous_serving = topology::kInvalidSector;
  util::TimestampMs last_ho_time = 0;
  // Recovery state: a target whose retry chain was exhausted is temporarily
  // barred (conn-establishment-failure-control style).
  topology::SectorId barred_sector = topology::kInvalidSector;
  util::TimestampMs barred_until = 0;

  /// Scratch buffer reused across the UE-day's opportunities so candidate
  /// enumeration never allocates in the steady state.
  std::vector<topology::SectorId> scratch_sectors;
};

/// Base class. Implementations must be const-thread-safe: decide() runs
/// concurrently for disjoint UE-days on the parallel engine; the only
/// mutation points are UeDayState (exclusive to one UE-day) and the obs
/// counter handles (sharded relaxed atomics, safe by construction).
class HandoverPolicy {
 public:
  virtual ~HandoverPolicy() = default;

  virtual const char* name() const noexcept = 0;

  /// Called at the top of every UE-day. The default resets `state`;
  /// overrides should call it first.
  virtual void begin_ue_day(const PolicyEnv& env, const devices::Ue& ue, int day,
                            UeDayState& state) const;

  /// The HO decision point. `rng` is the simulator's main per-UE-day stream
  /// (see the determinism contract above for who may draw from it).
  virtual HoDecision decide(const PolicyEnv& env, const HoOpportunity& opp,
                            UeDayState& state, util::Rng& rng) const = 0;

  /// Feedback after the attempt chain of an executed decision settles:
  /// `success` is the chain's final outcome. Default: no-op.
  virtual void on_outcome(const PolicyEnv& env, const HoOpportunity& opp,
                          const HoDecision& decision, bool success,
                          UeDayState& state) const;

  /// Epoch-checked tl_policy_* handle refresh; the simulator calls this at
  /// its own resolve_obs() boundary (single-threaded).
  void resolve_obs();

 protected:
  /// The RAN-level hold checks every policy applies to a prospective target
  /// (the legacy `continue` cases): invalid, no-op, ping-pong suppression,
  /// recovery barring. Returns true when the handover may proceed.
  bool ran_guards_allow(const PolicyEnv& env, const HoOpportunity& opp,
                        const UeDayState& state, topology::SectorId target) const noexcept {
    if (target == topology::kInvalidSector) return false;
    if (target == opp.serving) return false;
    if (env.suppress_ping_pong && target == state.previous_serving &&
        opp.time - state.last_ho_time <= env.ping_pong_window_ms) {
      return false;
    }
    if (target == state.barred_sector && opp.time < state.barred_until) return false;
    return true;
  }

  // Shared tl_policy_* families (registration is idempotent by name, so
  // every policy instance reports into the same counters).
  obs::Counter obs_decisions_;   ///< opportunities evaluated
  obs::Counter obs_handovers_;   ///< decisions that commanded a handover
  obs::Counter obs_holds_;       ///< decisions that held the UE on serving
  obs::Counter obs_overrides_;   ///< policy diverged from the calibrated default target

 private:
  std::uint64_t obs_epoch_ = UINT64_MAX;
};

}  // namespace tl::policy
