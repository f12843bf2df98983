#include "core/simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/checkpoint_codec.hpp"
#include "exec/buffers.hpp"
#include "exec/sharded_runner.hpp"
#include "govern/governor.hpp"
#include "mobility/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "policy/policies.hpp"
#include "ran/propagation.hpp"
#include "supervise/cancellation.hpp"
#include "supervise/supervisor.hpp"
#include "supervise/task_fault_injector.hpp"

namespace tl::core {

using topology::ObservedRat;
using topology::kInvalidSector;

Simulator::Simulator(StudyConfig config)
    : config_(std::move(config)),
      load_model_(activity_, config_.seed * 31 + 7),
      energy_(config_.seed * 31 + 8),
      failure_model_([&] {
        corenet::FailureModelConfig fm;
        fm.seed = config_.seed * 31 + 9;
        return fm;
      }()),
      causes_(config_.seed * 31 + 10),
      procedure_(failure_model_, durations_, causes_),
      recovery_(config_.recovery) {
  country_ = std::make_unique<geo::Country>(geo::synthesize_country(config_.census));
  deployment_ = std::make_unique<topology::Deployment>(
      topology::Deployment::build(*country_, config_.deployment));
  catalog_ = std::make_unique<devices::Catalog>(devices::Catalog::build(config_.catalog));
  population_ = std::make_unique<devices::Population>(
      devices::Population::build(*country_, *catalog_, config_.population));
  coverage_ = std::make_unique<ran::CoverageMap>(
      ran::CoverageMap::build(*country_, *deployment_, config_.coverage));
  traces_ = std::make_unique<mobility::TraceGenerator>(*country_, activity_,
                                                       config_.seed * 31 + 11);
  selector_ = std::make_unique<ran::TargetSelector>(*deployment_, *coverage_);
  locator_ = std::make_unique<ran::SectorLocator>(*deployment_, *selector_, energy_);
  policy_ = policy::make_policy(config_.policy);
  policy_env_.deployment = deployment_.get();
  policy_env_.selector = selector_.get();
  policy_env_.locator = locator_.get();
  policy_env_.load = &load_model_;
  policy_env_.suppress_ping_pong = config_.suppress_ping_pong;
  policy_env_.ping_pong_window_ms = config_.ping_pong_window_ms;

  plans_.reserve(population_->size());
  for (const auto& ue : population_->ues()) plans_.push_back(traces_->plan_for(ue));

  calibrate_coverage();
}

Simulator::~Simulator() = default;

void Simulator::calibrate_coverage() {
  // Sample modern UEs evenly and replay one weekday of movement, crediting
  // each event (weighted by the device's fallback multiplier) to the
  // postcode whose site would serve it — the same lookup the hot loop does.
  std::vector<double> volume(country_->postcodes().size(), 0.0);
  std::vector<double> volume_3g(country_->postcodes().size(), 0.0);
  const std::size_t target_sample = 4'000;
  const std::size_t stride =
      std::max<std::size_t>(1, population_->size() / target_sample);
  constexpr int kProbeDay = 0;  // a Monday
  util::Rng probe_rng = util::Rng::derive(config_.seed, 0xca1bu);
  for (std::size_t i = 0; i < population_->size(); i += stride) {
    const auto& ue = population_->ue(static_cast<devices::UeId>(i));
    if (!topology::supports(ue.rat_support, topology::Rat::kG4)) continue;
    const auto trace = traces_->generate(ue, plans_[ue.id], kProbeDay);
    const double mult = ran::CoverageMap::device_fallback_multiplier(ue.type);
    // Replay the hot loop's serving chain so `volume` approximates the HOs
    // that would actually be recorded (same-sector opportunities are skipped
    // there and must not count toward the denominator).
    topology::SectorId serving =
        locate_sector(plans_[ue.id].home, ObservedRat::kG45Nsa, ue, kProbeDay, 0,
                      probe_rng);
    for (const auto& event : trace) {
      // One lookup per event: the nearest site's postcode, and both locates.
      ran::SectorLocator::NearSites buffer;
      const auto near = locator_->near_sites(event.position, buffer);
      if (near.empty()) continue;
      const geo::PostcodeId pc = deployment_->site(near.front()).postcode;
      const int bin = util::SimCalendar::half_hour_bin(event.time);
      const topology::SectorId intra_target =
          locator_->locate(near, ObservedRat::kG45Nsa, ue, kProbeDay, bin, probe_rng);
      // A drawn fallback executes wherever the coverage profile advertises
      // 3G and a target sector is locatable — even if the intra HO would
      // have been a same-sector no-op.
      const bool fallback_executable =
          coverage_->at(pc).has_rat[static_cast<std::size_t>(topology::Rat::kG3)] &&
          locator_->locate(near, ObservedRat::kG3, ue, kProbeDay, bin, probe_rng) !=
              kInvalidSector;
      if (fallback_executable) volume_3g[pc] += mult;
      if (intra_target == kInvalidSector) continue;
      if (intra_target != serving) {
        volume[pc] += mult;
        serving = intra_target;
      } else if (fallback_executable) {
        // Counts only via the fallback numerator; approximate its small
        // denominator contribution (it records a HO when the fallback fires).
        volume[pc] += mult * coverage_->at(pc).p_fallback_3g;
      }
    }
  }
  coverage_->recalibrate(volume, volume_3g,
                         config_.coverage.target_share_3g /
                             std::max(config_.coverage.smartphone_volume_share, 0.5));
}

void Simulator::add_sink(telemetry::RecordSink* sink) {
  if (sink == nullptr) throw std::invalid_argument{"Simulator::add_sink: null sink"};
  sinks_.push_back(sink);
}

void Simulator::add_metrics_sink(telemetry::MetricsSink* sink) {
  if (sink == nullptr) throw std::invalid_argument{"Simulator::add_metrics_sink: null"};
  metrics_sinks_.push_back(sink);
}

void Simulator::remove_sink(telemetry::RecordSink* sink) {
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
  if (durable_ == sink) durable_ = nullptr;
}

void Simulator::remove_metrics_sink(telemetry::MetricsSink* sink) {
  metrics_sinks_.erase(std::remove(metrics_sinks_.begin(), metrics_sinks_.end(), sink),
                       metrics_sinks_.end());
}

void Simulator::set_quarantined_ues(std::vector<devices::UeId> ues) {
  std::sort(ues.begin(), ues.end());
  ues.erase(std::unique(ues.begin(), ues.end()), ues.end());
  if (!ues.empty() && ues.back() >= population_->size()) {
    throw std::invalid_argument{"Simulator::set_quarantined_ues: UE id out of range"};
  }
  quarantined_ues_ = std::move(ues);
}

void Simulator::set_fault_schedule(const faults::FaultSchedule* schedule) {
  energy_.set_availability_override(schedule);
  failure_model_.set_fault_schedule(schedule);
  locator_->set_fault_schedule(schedule);
}

void Simulator::attach_durable_log(telemetry::DurableRecordSink* sink) {
  if (sink == nullptr) {
    throw std::invalid_argument{"Simulator::attach_durable_log: null sink"};
  }
  add_sink(sink);
  durable_ = sink;
  sink->set_checkpoint_provider([this] { return encode_checkpoint(checkpoint()); });
}

void Simulator::run() {
  if (next_day_ == 0) {
    if (durable_ != nullptr) {
      // The durable log is the authoritative resume source: the checkpoint
      // embedded in its last committed day marker is, by construction, in
      // lockstep with the record bytes that precede it.
      auto& log = durable_->log();
      if (!log.is_open()) log.open();
      const telemetry::LogRecoveryReport& recovered = log.recovery();
      if (!recovered.app_state.empty()) {
        const DayCheckpoint cp = decode_checkpoint(recovered.app_state);
        if (cp.seed != config_.seed) {
          throw std::runtime_error{"Simulator::run: record log checkpoint seed mismatch"};
        }
        if (cp.next_day != recovered.last_committed_day + 1) {
          throw std::runtime_error{
              "Simulator::run: record log marker day disagrees with its checkpoint"};
        }
        restore(cp);
      }
    }
  }
  for (int day = next_day_; day < config_.days; ++day) run_day(day);
}

DayCheckpoint Simulator::checkpoint() const {
  DayCheckpoint cp;
  cp.next_day = next_day_;
  cp.seed = config_.seed;
  cp.records_emitted = records_emitted_;
  cp.core = core_;
  cp.quarantined_ues = quarantined_ues_;
  return cp;
}

void Simulator::restore(const DayCheckpoint& checkpoint) {
  if (checkpoint.seed != config_.seed) {
    throw std::invalid_argument{"Simulator::restore: checkpoint seed mismatch"};
  }
  if (checkpoint.next_day < 0 || checkpoint.next_day > config_.days) {
    throw std::invalid_argument{"Simulator::restore: day cursor out of range"};
  }
  next_day_ = checkpoint.next_day;
  records_emitted_ = checkpoint.records_emitted;
  core_ = checkpoint.core;
  set_quarantined_ues(checkpoint.quarantined_ues);
}

void Simulator::resolve_obs() {
  policy_->resolve_obs();  // own epoch guard
  const std::uint64_t epoch = obs::global_epoch();
  if (epoch == obs_epoch_) return;
  obs_epoch_ = epoch;
  obs_days_ = obs::counter("tl_sim_days_total", "Study days simulated");
  obs_ue_days_ = obs::counter("tl_sim_ue_days_total",
                              "UE-days simulated (quarantined UEs excluded)");
  obs_records_ = obs::counter("tl_sim_records_total",
                              "Handover records emitted to the sinks");
  obs_quarantined_ = obs::gauge("tl_sim_quarantined_ues",
                                "UEs currently withdrawn from the study");
  obs_day_seconds_ =
      obs::histogram("tl_sim_day_seconds",
                     obs::MetricsRegistry::latency_edges_s(),
                     "Wall time per simulated study day");
  // Same family ShardedDayRunner records its worker spans into
  // (registration is idempotent by name): the serial day books
  // its whole UE loop here, so stage accounting — and the throughput bench's
  // --profile breakdown — is populated at 1 thread too instead of silently
  // reading zero.
  obs_serial_sim_seconds_ =
      obs::histogram("tl_exec_shard_sim_seconds",
                     obs::MetricsRegistry::latency_edges_s(),
                     "Worker-side simulate time per shard");
}

void Simulator::run_day(int day) {
  if (day < 0) throw std::invalid_argument{"Simulator::run_day: negative day"};
  resolve_obs();
  obs::ScopedTimer day_span{obs_day_seconds_};
  // The day is transactional: if anything below throws — a sink mid-day, a
  // failed durable write or commit, a shard failure or a supervisor giving
  // up, after the pipelined merge may have folded in earlier shards — the
  // simulator state rolls back to the day's start, so a later retry (or a
  // resumed process) replays the day exactly once instead of double-counting
  // the partial attempt. The durable log streams the day as it merges, so
  // its rollback is discard_day(): no I/O here, the staged frames dropped
  // and any already written cut back to the last marker by the log's next
  // write (or by recovery on re-open). The quarantine set deliberately
  // survives the rollback: it is discovered deterministically and a re-run
  // would re-derive it.
  const corenet::CoreNetwork core_before = core_;
  const std::uint64_t emitted_before = records_emitted_;
  try {
    simulate_day(day);
    // Sequential progress advances the checkpoint cursor; replaying an
    // already-completed day leaves it alone. The cursor moves BEFORE the
    // sinks' day-end hooks so a durable log's commit marker embeds the
    // post-day checkpoint (resume point = day + 1) atomically with the
    // day's records.
    if (day == next_day_) next_day_ = day + 1;
    for (auto* sink : sinks_) sink->on_day_end(day);
    obs_days_.inc();
    obs_ue_days_.inc(population_->size() - quarantined_ues_.size());
    obs_records_.inc(records_emitted_ - emitted_before);
    obs_quarantined_.set(static_cast<double>(quarantined_ues_.size()));
  } catch (...) {
    day_span.cancel();  // aborted days stay out of the latency profile
    // Once the durable log has committed the day, the day happened — a
    // later sink's failure must not rewind state the log already persisted.
    const bool committed =
        durable_ != nullptr && durable_->log().last_committed_day() >= day;
    if (!committed) {
      core_ = core_before;
      records_emitted_ = emitted_before;
      if (next_day_ == day + 1) next_day_ = day;
      if (durable_ != nullptr) durable_->log().discard_day();
    }
    throw;
  }
}

// One private world-view per shard: procedures book into the shard's own
// CoreNetwork and records/metrics land in shard buffers, so workers share
// nothing mutable. The slab persists across days — the fix for the
// parallel-path slowdown was to stop rebuilding it (fresh CoreNetwork +
// empty buffers, re-paying allocation growth and governor syncs) every day.
struct Simulator::DayShards {
  struct Shard {
    corenet::CoreNetwork core;
    exec::RecordBuffer records;
    exec::MetricsBuffer metrics;
    /// Previous day's emission counts: the reserve() hints that let a cold
    /// (or geometry-rebuilt) shard pre-size instead of growing push by push.
    std::size_t record_hint = 0;
    std::size_t metrics_hint = 0;
  };
  std::vector<Shard> shards;
};

void Simulator::simulate_day(int day) {
  const auto& ues = population_->ues();
  const bool want_metrics = !metrics_sinks_.empty();
  const unsigned threads = exec::ThreadPool::resolve_threads(config_.threads);
  if (ues.size() <= 1 || (supervisor_ == nullptr && threads <= 1)) {
    // Serial: the same loop run inline, aimed straight at the live sinks
    // and core_. Staging would hold the whole day's records for nothing to
    // merge. Booking the span into the shard-sim family keeps the stage
    // breakdown comparable across thread counts (1 thread = 1 span per day).
    obs::ScopedTimer sim_span{obs_serial_sim_seconds_};
    EmitFrame out;
    out.core = &core_;
    out.sinks = sinks_;
    if (want_metrics) out.metrics_sinks = metrics_sinks_;
    try {
      simulate_range(day, 0, ues.size(), quarantined_ues_, out);
    } catch (...) {
      sim_span.cancel();  // aborted days stay out of the profile (as run_day)
      throw;
    }
    records_emitted_ += out.records;
    return;
  }

  if (runner_ == nullptr || runner_->thread_count() != threads ||
      runner_obs_epoch_ != obs::global_epoch()) {
    exec::ShardedDayRunner::Options opt;
    opt.threads = threads;
    opt.min_items_per_shard = kMinUesPerShard;
    runner_ = std::make_unique<exec::ShardedDayRunner>(opt);
    runner_obs_epoch_ = obs::global_epoch();
  }
  const std::size_t shard_count = runner_->shard_count(ues.size());
  if (day_shards_ == nullptr) day_shards_ = std::make_unique<DayShards>();
  auto& shards = day_shards_->shards;
  if (shards.size() != shard_count || !config_.reuse_shard_state) {
    // Geometry change (thread sweep, population change)
    // or reuse disabled: retained capacities and hints belong to different
    // UE ranges — drop the slab and let the day grow it organically, as a
    // fresh run would.
    shards.clear();
    shards.resize(shard_count);
  }

  const supervise::TaskFaultInjector* injector =
      supervisor_ != nullptr ? supervisor_->options().injector : nullptr;
  const auto simulate = [&](DayShards::Shard& s, std::size_t first, std::size_t last,
                            std::span<const devices::UeId> skip,
                            const supervise::CancelToken* cancel) {
    // Reset on ENTRY, not after merge: an aborted day or a failed attempt
    // leaves stale contents behind, and entry-reset makes every attempt
    // (including a retry or a transactional replay of the same day)
    // self-contained. clear() keeps the warm allocation; reserve() only acts
    // on a cold shard.
    s.core = corenet::CoreNetwork{};
    s.records.clear();
    s.records.reserve(s.record_hint);
    s.metrics.clear();
    if (want_metrics) s.metrics.reserve(s.metrics_hint);
    telemetry::RecordSink* record_sink = &s.records;
    telemetry::MetricsSink* metrics_sink = &s.metrics;
    EmitFrame out;
    out.core = &s.core;
    out.sinks = {&record_sink, 1};
    if (want_metrics) out.metrics_sinks = {&metrics_sink, 1};
    out.cancel = cancel;
    out.injector = injector;
    simulate_range(day, first, last, skip, out);
  };
  const auto merge = [&](std::size_t shard) {
    DayShards::Shard& s = shards[shard];
    s.record_hint = s.records.size();
    s.metrics_hint = s.metrics.size();
    // The shard's buffer holds exactly the records it emitted. Counters
    // shard-reduce in merge order: exact integer sums, no atomics, no
    // dependence on which worker finished first.
    records_emitted_ += s.records.size();
    s.records.drain_to(sinks_);
    s.metrics.drain_to(metrics_sinks_);
    core_.accumulate(s.core);
  };

  if (supervisor_ == nullptr) {
    runner_->run(
        ues.size(),
        [&](std::size_t shard, std::size_t first, std::size_t last) {
          simulate(shards[shard], first, last, quarantined_ues_, nullptr);
        },
        merge);
  } else {
    const supervise::DayReport report = supervisor_->run_day(
        *runner_, day, ues.size(), quarantined_ues_,
        [&](std::size_t shard, std::size_t first, std::size_t last,
            const supervise::CancelToken* cancel, std::span<const devices::UeId> skip) {
          simulate(shards[shard], first, last, skip, cancel);
        },
        [&](std::size_t first, std::size_t last, const supervise::CancelToken* cancel,
            std::span<const devices::UeId> skip) {
          DayShards::Shard scratch;  // probe output is evidence, not data
          simulate(scratch, first, last, skip, cancel);
        },
        merge);
    // Fold the day's quarantine into the persistent set BEFORE run_day()'s
    // on_day_end loop fires: the durable log's commit marker must embed the
    // post-day checkpoint including the UEs this very day withdrew.
    for (const auto& q : report.quarantined) {
      const auto pos =
          std::lower_bound(quarantined_ues_.begin(), quarantined_ues_.end(), q.item);
      if (pos == quarantined_ues_.end() || *pos != q.item) {
        quarantined_ues_.insert(pos, q.item);
      }
    }
  }

  // Reuse trades resident bytes for allocation-free steady state; under
  // governor pressure (or with reuse disabled) give the memory back at the
  // day boundary.
  govern::MemoryBudget* governor = govern::global_governor();
  const bool pressured =
      governor != nullptr && governor->level() != govern::PressureLevel::kSteady;
  if (pressured || !config_.reuse_shard_state) {
    shards.clear();
    shards.shrink_to_fit();
  }
}

void Simulator::simulate_range(int day, std::size_t first, std::size_t last,
                               std::span<const devices::UeId> skip,
                               EmitFrame& out) const {
  const auto& ues = population_->ues();
  for (std::size_t i = first; i < last; ++i) {
    const auto& ue = ues[i];
    if (std::binary_search(skip.begin(), skip.end(), ue.id)) continue;
    if (out.cancel != nullptr) out.cancel->throw_if_cancelled();
    // Poison channel of the chaos injector: per-UE, day- and
    // thread-independent, so bisection isolates the same UEs everywhere.
    if (out.injector != nullptr) out.injector->on_ue(ue.id, out.cancel);
    // Only 4G/5G-capable devices produce records at the EPC observation
    // point (§8): legacy-only UEs handover inside 2G/3G, which the MME
    // never sees — but their mobility metrics still exist network-side.
    if (topology::supports(ue.rat_support, topology::Rat::kG4)) {
      simulate_ue_day(ue, plans_[ue.id], day, out);
    } else if (!out.metrics_sinks.empty()) {
      simulate_legacy_ue_day(ue, plans_[ue.id], day, out);
    }
  }
}

void Simulator::simulate_legacy_ue_day(const devices::Ue& ue,
                                       const mobility::UePlan& plan, int day,
                                       EmitFrame& out) const {
  util::Rng rng = util::Rng::derive(config_.seed, 0x1e64u, ue.id,
                                    static_cast<std::uint64_t>(day));
  const mobility::DailyTrace trace = traces_->generate(ue, plan, day);
  const topology::ObservedRat rat_class =
      ue.rat_support == topology::RatSupport::kUpTo2G ? topology::ObservedRat::kG2
                                                      : topology::ObservedRat::kG3;

  mobility::MobilityMetricsBuilder metrics;
  util::TimestampMs t0 = static_cast<util::TimestampMs>(day) * util::kMsPerDay;
  topology::SectorId serving = locate_sector(plan.home, rat_class, ue, day, 0, rng);
  util::TimestampMs serving_since = t0;
  std::uint32_t handovers = 0;

  for (const auto& event : trace) {
    if (out.cancel != nullptr) out.cancel->throw_if_cancelled();
    if (serving == kInvalidSector) break;
    const int bin = util::SimCalendar::half_hour_bin(event.time);
    const topology::SectorId target =
        locate_sector(event.position, rat_class, ue, day, bin, rng);
    if (target == kInvalidSector || target == serving) continue;
    const auto& source = deployment_->sector(serving);
    metrics.add_visit(serving, deployment_->site(source.site).location,
                      static_cast<double>(event.time - serving_since));
    serving = target;
    serving_since = event.time;
    ++handovers;
  }
  if (serving != kInvalidSector) {
    const auto& last = deployment_->sector(serving);
    metrics.add_visit(serving, deployment_->site(last.site).location,
                      static_cast<double>((static_cast<util::TimestampMs>(day) + 1) *
                                              util::kMsPerDay -
                                          serving_since));
  }
  telemetry::UeDayMetrics m;
  m.ue = ue.id;
  m.day = day;
  m.handovers = handovers;
  m.failures = 0;  // legacy HOFs are outside this study's observation point
  m.distinct_sectors =
      metrics.empty() ? (serving != kInvalidSector ? 1u : 0u) : metrics.distinct_sectors();
  m.radius_of_gyration_km = static_cast<float>(metrics.radius_of_gyration_km());
  m.device_type = ue.type;
  for (auto* sink : out.metrics_sinks) sink->consume(m);
}

void Simulator::simulate_ue_day(const devices::Ue& ue, const mobility::UePlan& plan,
                                int day, EmitFrame& out) const {
  util::Rng rng = util::Rng::derive(config_.seed, 0x51e0u, ue.id,
                                    static_cast<std::uint64_t>(day));
  const mobility::DailyTrace trace = traces_->generate(ue, plan, day);

  mobility::MobilityMetricsBuilder metrics;

  // Initial serving sector: where the UE wakes up (home at midnight).
  util::TimestampMs t0 = static_cast<util::TimestampMs>(day) * util::kMsPerDay;
  topology::SectorId serving =
      locate_sector(plan.home, ObservedRat::kG45Nsa, ue, day, 0, rng);
  if (serving == kInvalidSector && !trace.empty()) {
    serving = locate_sector(trace.front().position, ObservedRat::kG45Nsa, ue, day, 0, rng);
  }

  std::uint32_t handovers = 0;
  std::uint32_t failures = 0;
  util::TimestampMs serving_since = t0;
  // Per-UE-day policy state: ping-pong suppression + recovery barring fields
  // maintained here, plus whatever the policy keeps privately. Fresh per
  // UE-day, so days stay independent replay units under every policy and
  // checkpoints carry no policy state.
  policy::UeDayState pstate;
  policy_->begin_ue_day(policy_env_, ue, day, pstate);

  const double voice_share = config_.voice_share[static_cast<std::size_t>(ue.type)];

  for (const auto& event : trace) {
    // Cooperative cancellation point: the watchdog's deadline reaches into
    // the hot loop here, once per trace event (one relaxed atomic load).
    if (out.cancel != nullptr) out.cancel->throw_if_cancelled();
    if (serving == kInvalidSector) break;  // out of coverage world; nothing observable
    const int bin = util::SimCalendar::half_hour_bin(event.time);
    const auto& source = deployment_->sector(serving);

    // RAN decision: the policy decides whether this opportunity becomes a
    // handover and toward which sector. The voice-activity draw stays on the
    // main stream ahead of the call (every policy shares it).
    const bool voice_active = rng.chance(voice_share);
    policy::HoOpportunity opp;
    opp.ue = &ue;
    opp.serving = serving;
    opp.position = event.position;
    opp.time = event.time;
    opp.day = day;
    opp.bin = bin;
    opp.voice_active = voice_active;

    const policy::HoDecision decision = policy_->decide(policy_env_, opp, pstate, rng);
    if (!decision.handover) continue;  // hold: no record, exactly the legacy skips
    const topology::SectorId target = decision.target;

    const auto& target_sector = deployment_->sector(target);

    corenet::HoAttempt attempt;
    attempt.ue = &ue;
    attempt.source_sector = serving;
    attempt.target_sector = target;
    attempt.target_rat = decision.target_rat;
    attempt.source_vendor = source.vendor;
    attempt.area = source.area_type;
    attempt.region = source.region;
    attempt.time = event.time;
    attempt.target_overload = ran::LoadModel::overload_rejection_probability(
        load_model_.utilization(target_sector, day, bin));
    attempt.srvcc = decision.srvcc;
    // EN-DC applies when the UE rides an NR secondary on either end of the
    // HO (the EPC still logs plain 4G/5G-NSA).
    attempt.endc = source.rat == topology::Rat::kG5Nr ||
                   target_sector.rat == topology::Rat::kG5Nr;

    corenet::HoOutcome outcome = procedure_.execute(attempt, *out.core, rng);

    telemetry::HandoverRecord record;
    record.timestamp = event.time;
    record.success = outcome.success;
    record.duration_ms = static_cast<float>(outcome.duration_ms);
    record.cause = outcome.cause;
    record.anon_user_id = ue.anon_id;
    record.source_sector = serving;
    record.target_sector = target;
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
    for (auto* sink : out.sinks) sink->consume(record);
    ++out.records;

    ++handovers;
    if (!outcome.success) ++failures;

    // The time the (eventually) successful HO executed; re-attempts push it
    // past the triggering trace event.
    util::TimestampMs ho_time = event.time;
    if (!outcome.success && config_.recovery.enabled) {
      // T304 expired: the UE runs RRC re-establishment. Either it lands on
      // the (still strongest) target and the HO is re-attempted after a
      // capped-exponential backoff, or it falls back to the source cell and
      // the chain ends ("MS continues on the old lchan").
      const util::TimestampMs day_end =
          (static_cast<util::TimestampMs>(day) + 1) * util::kMsPerDay;
      for (int retry = 1; retry <= config_.recovery.max_reattempts && !outcome.success;
           ++retry) {
        const faults::RecoveryDecision recovery = recovery_.decide(retry, rng);
        if (recovery.action == faults::RecoveryAction::kFallbackToSource) break;
        const util::TimestampMs t =
            ho_time + static_cast<util::TimestampMs>(recovery.backoff_ms);
        if (t >= day_end) break;  // chain truncated at the day boundary
        ho_time = t;
        attempt.time = t;
        outcome = procedure_.execute(attempt, *out.core, rng);
        record.timestamp = t;
        record.success = outcome.success;
        record.duration_ms = static_cast<float>(outcome.duration_ms);
        record.cause = outcome.cause;
        record.attempt = static_cast<std::uint8_t>(retry);
        for (auto* sink : out.sinks) sink->consume(record);
        ++out.records;
        ++handovers;
        if (!outcome.success) ++failures;
      }
      if (!outcome.success && config_.recovery.bar_failed_target_ms > 0) {
        pstate.barred_sector = target;
        pstate.barred_until = ho_time + config_.recovery.bar_failed_target_ms;
      }
    }

    // Policy feedback once the attempt chain settles.
    policy_->on_outcome(policy_env_, opp, decision, outcome.success, pstate);

    if (outcome.success) {
      // Book the dwell on the sector we are leaving, then switch.
      metrics.add_visit(serving, deployment_->site(source.site).location,
                        static_cast<double>(ho_time - serving_since));
      pstate.previous_serving = serving;
      pstate.last_ho_time = ho_time;
      serving = target;
      serving_since = ho_time;
      // Fallbacks are transient: the UE reselects back to 4G/5G before its
      // next observable HO (the paper never sees 3G->4G, only the next
      // 4G-sourced HO). Model that by restoring a 4G/5G serving sector.
      if (decision.target_rat != ObservedRat::kG45Nsa) {
        const topology::SectorId back =
            locate_sector(event.position, ObservedRat::kG45Nsa, ue, day, bin, rng);
        if (back != kInvalidSector) serving = back;
      }
    }
  }

  if (!out.metrics_sinks.empty()) {
    if (serving != kInvalidSector) {
      const auto& last = deployment_->sector(serving);
      metrics.add_visit(serving, deployment_->site(last.site).location,
                        static_cast<double>((static_cast<util::TimestampMs>(day) + 1) *
                                                util::kMsPerDay -
                                            serving_since));
    }
    telemetry::UeDayMetrics m;
    m.ue = ue.id;
    m.day = day;
    m.handovers = handovers;
    m.failures = failures;
    m.distinct_sectors = metrics.empty() ? (serving != kInvalidSector ? 1u : 0u)
                                         : metrics.distinct_sectors();
    m.radius_of_gyration_km = static_cast<float>(metrics.radius_of_gyration_km());
    m.device_type = ue.type;
    for (auto* sink : out.metrics_sinks) sink->consume(m);
  }
}

}  // namespace tl::core
