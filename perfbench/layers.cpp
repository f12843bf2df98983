// The traced run's sampled replay: Simulator::simulate_ue_day re-enacted
// through public calls only (trace generation, site lookup, sector location,
// policy decision, HO procedure, record encoding), each timed on its own.
// It mirrors the default configuration the workloads run: calibrated
// baseline policy, no fault schedule, recovery modelling off.

#include <limits>

#include "core/simulator.hpp"
#include "core_network/ho_state_machine.hpp"
#include "perfbench.hpp"
#include "policy/policy.hpp"
#include "ran/load.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace tl::perfbench {

using topology::kInvalidSector;
using topology::ObservedRat;

bool sampled_ue_day(std::uint64_t seed, std::uint64_t anon_id, int day) {
  return util::derive_seed(seed, 0x7e1a5u, anon_id, static_cast<std::uint64_t>(day)) %
             LayerStats::kSampleModulus ==
         0;
}

namespace {

/// Times one call into `call`, books it as a span, and returns its result.
template <typename F>
auto timed(SpanLog& spans, const char* name, std::uint64_t id, LayerStats::Call& call,
           double* loop_seconds, F&& body) {
  const auto start = Clock::now();
  auto result = body();
  const auto end = Clock::now();
  spans.add(name, start, end, id);
  const double took = seconds_between(start, end);
  ++call.calls;
  call.seconds += took;
  if (loop_seconds != nullptr) *loop_seconds += took;
  return result;
}

/// Brute-force nearest-site distance: the oracle for geo.nearest_miss_pct.
double brute_force_nearest_km2(const topology::Deployment& deployment,
                               const util::GeoPoint& p) {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& site : deployment.sites()) {
    best = std::min(best, util::squared_distance_km2(site.location, p));
  }
  return best;
}

}  // namespace

void replay_sampled_ue_days(const core::Simulator& sim, const std::vector<int>& days,
                            bool legacy, SpanLog& spans, LayerStats& stats) {
  const core::StudyConfig& cfg = sim.config();
  const topology::Deployment& deployment = sim.deployment();
  const geo::SpatialIndex& sites = deployment.site_index();
  const policy::HandoverPolicy& pol = sim.policy();
  const policy::PolicyEnv& env = sim.policy_env();
  const corenet::DurationModel durations;
  const corenet::HandoverProcedure procedure{sim.failure_model(), durations,
                                             sim.cause_catalog()};
  corenet::CoreNetwork core;
  std::vector<std::uint8_t> wire;
  std::vector<std::pair<util::GeoPoint, std::uint32_t>> positions;  // nearest() queries
  double* loop = &stats.loop_seconds;

  const std::int32_t root = spans.open("replay");
  for (const int day : days) {
    auto& day_records = stats.records_by_day[day];
    for (const devices::Ue& ue : sim.population().ues()) {
      if (!sampled_ue_day(cfg.seed, ue.anon_id, day)) continue;
      // A skipped legacy UE-day costs the simulator nothing either, but it
      // counts in its UE-days: count it here too.
      ++stats.ue_days;
      const bool modern = topology::supports(ue.rat_support, topology::Rat::kG4);
      if (!modern && !legacy) continue;
      const std::uint64_t id =
          ((static_cast<std::uint64_t>(ue.id) << 16) | static_cast<std::uint64_t>(day)) + 1;
      const std::int32_t span = spans.open("ue_day", id);
      positions.clear();
      const mobility::UePlan plan = sim.traces().plan_for(ue);
      const mobility::DailyTrace trace = timed(spans, "mobility.generate", id,
                                               stats.generate, loop, [&] {
                                                 return sim.traces().generate(ue, plan, day);
                                               });
      stats.events += trace.size();
      const auto locate = [&](const util::GeoPoint& p, ObservedRat rat, int bin,
                              util::Rng& rng) {
        return timed(spans, "ran.locate", id, stats.locate, loop,
                     [&] { return sim.locator().locate(p, rat, ue, day, bin, rng); });
      };

      if (!modern) {
        // Simulator::simulate_legacy_ue_day: locate per event, no records.
        util::Rng rng = util::Rng::derive(cfg.seed, 0x1e64u, ue.id,
                                          static_cast<std::uint64_t>(day));
        const ObservedRat rat = ue.rat_support == topology::RatSupport::kUpTo2G
                                    ? ObservedRat::kG2
                                    : ObservedRat::kG3;
        topology::SectorId serving = locate(plan.home, rat, 0, rng);
        for (const auto& event : trace) {
          if (serving == kInvalidSector) break;
          const topology::SectorId target =
              locate(event.position, rat, util::SimCalendar::half_hour_bin(event.time), rng);
          if (target != kInvalidSector && target != serving) serving = target;
        }
        spans.close(span);
        continue;
      }

      util::Rng rng = util::Rng::derive(cfg.seed, 0x51e0u, ue.id,
                                        static_cast<std::uint64_t>(day));
      topology::SectorId serving = locate(plan.home, ObservedRat::kG45Nsa, 0, rng);
      if (serving == kInvalidSector && !trace.empty()) {
        serving = locate(trace.front().position, ObservedRat::kG45Nsa, 0, rng);
      }
      policy::UeDayState pstate;
      timed(spans, "policy.begin_ue_day", id, stats.begin_ue_day, loop, [&] {
        pol.begin_ue_day(env, ue, day, pstate);
        return 0;
      });
      const double voice_share = cfg.voice_share[static_cast<std::size_t>(ue.type)];

      for (const auto& event : trace) {
        if (serving == kInvalidSector) break;
        const int bin = util::SimCalendar::half_hour_bin(event.time);
        const auto& source = deployment.sector(serving);
        const bool voice_active = rng.chance(voice_share);

        const std::uint32_t site = timed(spans, "geo.nearest", id, stats.nearest, loop,
                                         [&] { return sites.nearest(event.position); });
        positions.push_back({event.position, site});

        policy::HoOpportunity opp;
        opp.ue = &ue;
        opp.serving = serving;
        opp.position = event.position;
        opp.postcode = deployment.site(site).postcode;
        opp.time = event.time;
        opp.day = day;
        opp.bin = bin;
        opp.voice_active = voice_active;
        const policy::HoDecision decision =
            timed(spans, "policy.decide", id, stats.decide, loop,
                  [&] { return pol.decide(env, opp, pstate, rng); });
        if (!decision.handover) continue;
        ++stats.handovers;

        const auto& target_sector = deployment.sector(decision.target);
        corenet::HoAttempt attempt;
        attempt.ue = &ue;
        attempt.source_sector = serving;
        attempt.target_sector = decision.target;
        attempt.target_rat = decision.target_rat;
        attempt.source_vendor = source.vendor;
        attempt.area = source.area_type;
        attempt.region = source.region;
        attempt.time = event.time;
        attempt.target_overload = ran::LoadModel::overload_rejection_probability(
            env.load->utilization(target_sector, day, bin));
        attempt.srvcc = decision.srvcc;
        attempt.endc = source.rat == topology::Rat::kG5Nr ||
                       target_sector.rat == topology::Rat::kG5Nr;
        const corenet::HoOutcome outcome =
            timed(spans, "core_network.execute", id, stats.execute, loop,
                  [&] { return procedure.execute(attempt, core, rng); });

        telemetry::HandoverRecord record;
        record.timestamp = event.time;
        record.success = outcome.success;
        record.duration_ms = static_cast<float>(outcome.duration_ms);
        record.cause = outcome.cause;
        record.anon_user_id = ue.anon_id;
        record.source_sector = serving;
        record.target_sector = decision.target;
        record.source_rat = ObservedRat::kG45Nsa;
        record.target_rat = decision.target_rat;
        record.device_type = ue.type;
        record.manufacturer = ue.manufacturer;
        record.postcode = source.postcode;
        record.district = source.district;
        record.area = source.area_type;
        record.region = source.region;
        record.vendor = source.vendor;
        record.srvcc = decision.srvcc;
        timed(spans, "telemetry.encode_record", id, stats.encode, nullptr, [&] {
          wire.clear();
          telemetry::RecordLog::encode_record(record, wire);
          return 0;
        });
        day_records.push_back(record);

        pol.on_outcome(env, opp, decision, outcome.success, pstate);
        if (outcome.success) {
          pstate.previous_serving = serving;
          pstate.last_ho_time = event.time;
          serving = decision.target;
          if (decision.target_rat != ObservedRat::kG45Nsa) {
            const topology::SectorId back =
                locate(event.position, ObservedRat::kG45Nsa, bin, rng);
            if (back != kInvalidSector) serving = back;
          }
        }
      }
      spans.close(span);

      // Measurement-only calls, after the UE-day so they cannot disturb the
      // caches the loop's own calls ran with.
      for (const auto& [p, site] : positions) {
        timed(spans, "geo.nearest_k3", id, stats.nearest_k3, nullptr,
              [&] { return sites.nearest_k(p, 3); });
        if (site != geo::SpatialIndex::kNotFound &&
            util::squared_distance_km2(deployment.site(site).location, p) >
                brute_force_nearest_km2(deployment, p)) {
          ++stats.nearest_misses;
        }
      }
    }
  }
  spans.close(root);
}

}  // namespace tl::perfbench
