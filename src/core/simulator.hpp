#pragma once

// The countrywide simulator: ties every substrate together and streams
// handover records through registered sinks, one study day at a time.
//
// Construction builds the full world (census -> country -> deployment ->
// catalog -> population -> coverage profiles -> core network). run()/
// run_day() then replay UE movement through the RAN decision logic and the
// EPC handover state machine. Everything is deterministic in the seed.
//
// A day has one execution path: one UE-range loop (simulate_range) that
// either writes straight into the sinks (serial) or fills a fixed window of
// persistent staging slots that merge back in UE order. Sharded days have
// one scheduler, exec::ShardedDayRunner, at config().threads; an installed
// supervise::StudySupervisor wraps its shard callback, never replaces it.
// Every mode emits the same bytes.

#include <memory>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "obs/metrics.hpp"
#include "core_network/duration_model.hpp"
#include "faults/fault_schedule.hpp"
#include "faults/recovery.hpp"
#include "core_network/entities.hpp"
#include "core_network/failure_causes.hpp"
#include "core_network/failure_model.hpp"
#include "core_network/ho_state_machine.hpp"
#include "devices/population.hpp"
#include "geo/country.hpp"
#include "mobility/activity.hpp"
#include "mobility/trace_generator.hpp"
#include "policy/policy.hpp"
#include "ran/coverage.hpp"
#include "ran/load.hpp"
#include "ran/sector_locator.hpp"
#include "ran/target_selection.hpp"
#include "telemetry/record_log.hpp"
#include "telemetry/sinks.hpp"
#include "topology/deployment.hpp"
#include "topology/energy_saving.hpp"

namespace tl::exec {
class ShardedDayRunner;
}

namespace tl::supervise {
class CancelToken;
class StudySupervisor;
class TaskFaultInjector;
}

namespace tl::core {

/// Everything needed to resume a run after the last completed day: the day
/// cursor, the record counter, the core-network entity counters, and the
/// quarantined-UE set (UEs withdrawn from the population by supervised
/// degradation — resuming without it would replay different bytes). All
/// other simulator state is either immutable after construction or derived
/// per (seed, ue, day), so days are independent replay units.
struct DayCheckpoint {
  int next_day = 0;
  std::uint64_t seed = 0;  // guards against resuming a mismatched study
  std::uint64_t records_emitted = 0;
  corenet::CoreNetwork core;
  std::vector<devices::UeId> quarantined_ues;  // sorted, unique
};

class Simulator {
 public:
  /// UEs per shard on the parallel engine: a sharded day cuts the
  /// population into ranges of this many UEs (the last may be shorter), so
  /// the shard count follows the population while one shard's staging stays
  /// small (about 0.5–1 MB of records on the bench worlds) and its work
  /// still amortizes the shard's fixed cost. Output bytes do not depend on
  /// it.
  static constexpr std::size_t kMinUesPerShard = 256;

  explicit Simulator(StudyConfig config);
  ~Simulator();

  /// Sinks are borrowed; they must outlive the simulator's run calls.
  void add_sink(telemetry::RecordSink* sink);
  void add_metrics_sink(telemetry::MetricsSink* sink);
  /// Detaches a previously added record sink (no-op when absent); also
  /// clears the durable-log coupling when `sink` is the attached log sink.
  /// The world build dominates construction cost, so a long-lived simulator
  /// swaps sinks between runs instead of being rebuilt.
  void remove_sink(telemetry::RecordSink* sink);
  /// Detaches a previously added metrics sink (no-op when absent).
  void remove_metrics_sink(telemetry::MetricsSink* sink);

  /// Registers `sink` as a record sink AND couples it to the checkpoint
  /// protocol: every day commit marker written by the log embeds this
  /// simulator's serialized checkpoint, so the day cursor, core-network
  /// counters, and record bytes become one atomic commit unit. run()
  /// restores from the log's recovered state — the one resume path:
  /// resuming after a kill at any byte offset yields a record stream
  /// byte-identical to an uninterrupted run.
  void attach_durable_log(telemetry::DurableRecordSink* sink);

  /// Installs (or clears, with nullptr) a borrowed fault-injection
  /// schedule: outages veto sectors in locate_sector (via the energy
  /// policy's availability override) and vendor bug waves inflate the
  /// failure probability of matching HO attempts. An empty or absent
  /// schedule leaves output byte-identical.
  void set_fault_schedule(const faults::FaultSchedule* schedule);

  /// Runs the remaining configured days (all of them on a fresh instance).
  /// With a durable log attached, first resumes from its last committed day
  /// marker, so a finished log makes run() a no-op.
  void run();
  /// Runs a single day (idempotent per day; callers sequence days). Running
  /// the day at the checkpoint cursor advances the cursor; out-of-order
  /// replays leave it alone. With `config().threads` != 1, or a supervisor
  /// installed, the day executes on the parallel engine (src/exec): UE
  /// shards simulate concurrently into a window of persistent staging slots
  /// and merge back in canonical UE order, so sinks — including an attached
  /// durable log — observe a stream byte-identical to the serial run.
  void run_day(int day);

  /// Installs (or clears, with nullptr) a borrowed supervisor: subsequent
  /// days hand the simulator's own runner and staging slots to
  /// StudySupervisor::run_day, which wraps each shard in a ladder of retries
  /// with backoff, watchdog deadlines (cooperative cancellation polled in the
  /// per-trace-event hot loop), and poison-UE bisection + quarantine,
  /// instead of aborting on the first shard failure. Threads and shard
  /// geometry stay the study's (set_threads); supervised days take the
  /// sharded path even at 1 thread. Output stays byte-identical to an
  /// unsupervised serial run over the surviving (non-quarantined)
  /// population; a day the supervisor gives up on rolls back like any failed
  /// day. The supervisor must outlive the runs.
  void set_supervisor(supervise::StudySupervisor* supervisor) noexcept {
    supervisor_ = supervisor;
  }
  supervise::StudySupervisor* supervisor() const noexcept { return supervisor_; }

  /// Replaces the quarantined-UE set (sorted internally). Quarantined UEs
  /// are skipped at every thread count, supervised or not, so a fresh
  /// simulator seeded with a previous run's quarantine reproduces its
  /// surviving-population stream exactly.
  void set_quarantined_ues(std::vector<devices::UeId> ues);
  const std::vector<devices::UeId>& quarantined_ues() const noexcept {
    return quarantined_ues_;
  }

  /// Re-targets subsequent run()/run_day() calls at `threads` workers
  /// (0 = all hardware threads, 1 = serial), supervised or not. Simulation
  /// output is invariant under this knob; only wall-clock changes. The
  /// worker pool is rebuilt lazily on the next sharded day, so a long-lived
  /// simulator can sweep thread counts (the throughput bench does) without
  /// a world rebuild.
  void set_threads(unsigned threads) noexcept { config_.threads = threads; }

  /// Snapshot after the last completed day; feed to a fresh Simulator's
  /// restore() to continue the run with an identical record stream.
  DayCheckpoint checkpoint() const;
  /// Restores the day cursor and counters. Throws std::invalid_argument on
  /// a seed mismatch (the checkpoint belongs to a different study).
  void restore(const DayCheckpoint& checkpoint);
  /// First day the next run() call will simulate.
  int next_day() const noexcept { return next_day_; }

  const StudyConfig& config() const noexcept { return config_; }
  const geo::Country& country() const noexcept { return *country_; }
  const topology::Deployment& deployment() const noexcept { return *deployment_; }
  const devices::Catalog& catalog() const noexcept { return *catalog_; }
  const devices::Population& population() const noexcept { return *population_; }
  const ran::CoverageMap& coverage() const noexcept { return *coverage_; }
  const mobility::ActivityModel& activity() const noexcept { return activity_; }
  const mobility::TraceGenerator& traces() const noexcept { return *traces_; }
  const corenet::CoreNetwork& core_network() const noexcept { return core_; }
  const corenet::FailureModel& failure_model() const noexcept { return failure_model_; }
  const corenet::CauseCatalog& cause_catalog() const noexcept { return causes_; }

  /// The handover decision policy (src/policy) consulted at every HO
  /// opportunity, instantiated from config().policy at construction. The
  /// default CalibratedBaselinePolicy replays the legacy decision sequence
  /// byte-for-byte.
  const policy::HandoverPolicy& policy() const noexcept { return *policy_; }
  /// The const world view handed to the policy on every decision — exposed
  /// so tests and tools can drive policies outside the hot loop.
  const policy::PolicyEnv& policy_env() const noexcept { return policy_env_; }
  /// The shared serving/target sector locator (also inside policy_env()).
  const ran::SectorLocator& locator() const noexcept { return *locator_; }

  std::uint64_t records_emitted() const noexcept { return records_emitted_; }

 private:
  /// Where one UE-day emits: the core network booking its procedures, the
  /// record/metrics sinks receiving its stream, and a record counter. The
  /// serial day aims it at the simulator's own state; sharded days at one
  /// staging slot's buffers, which merge back in UE order. Keeping every
  /// mutation behind this frame is what makes simulate_ue_day const — safe
  /// to call concurrently for disjoint UE-days by construction.
  struct EmitFrame {
    corenet::CoreNetwork* core = nullptr;
    std::span<telemetry::RecordSink* const> sinks;
    std::span<telemetry::MetricsSink* const> metrics_sinks;
    std::uint64_t records = 0;
    /// Cooperative cancellation, polled once per UE and once per trace
    /// event. Null unless a supervisor runs the day; then it points at the
    /// shard attempt's token so a watchdog-fired deadline interrupts the UE
    /// mid-day.
    const supervise::CancelToken* cancel = nullptr;
    /// The supervisor's chaos injector, whose poison channel is consulted
    /// once per UE. Null unless a supervisor with an injector runs the day.
    const supervise::TaskFaultInjector* injector = nullptr;
  };

  /// Staging slots (private CoreNetwork + record/metrics buffers), one per
  /// position of the runner's window, kept across days for sharded and
  /// supervised days alike: a shard resets-not-reallocates its slot on
  /// entry, so later shards and days simulate into warm buffers instead of
  /// re-paying allocation growth and governor syncs in the hot loop.
  /// Defined in simulator.cpp.
  struct DayShards;
  /// The day path: serial days run simulate_range inline into the live
  /// sinks; sharded and supervised days run it per shard into a slot of
  /// day_shards_.
  void simulate_day(int day);
  /// The one UE-range loop, and the only caller of simulate_ue_day and
  /// simulate_legacy_ue_day: simulates UEs [first, last) of `day` into
  /// `out`, skipping the ids in `skip` (sorted).
  void simulate_range(int day, std::size_t first, std::size_t last,
                      std::span<const devices::UeId> skip, EmitFrame& out) const;
  void simulate_ue_day(const devices::Ue& ue, const mobility::UePlan& plan, int day,
                       EmitFrame& out) const;
  /// Legacy-only UEs never surface at the EPC observation point, but their
  /// mobility (visited 2G/3G sectors, gyration) still exists network-side
  /// (SGSN view) and feeds the §3.3 metrics. Emits metrics, no records.
  void simulate_legacy_ue_day(const devices::Ue& ue, const mobility::UePlan& plan,
                              int day, EmitFrame& out) const;
  /// Probe pass: samples traces, measures where HO events actually land,
  /// and re-calibrates the coverage fallback probabilities on that volume.
  void calibrate_coverage();
  /// Serving/target sector on the site nearest `position` for the UE's RAT
  /// class (delegates to the shared ran::SectorLocator).
  topology::SectorId locate_sector(const util::GeoPoint& position,
                                   topology::ObservedRat rat_class,
                                   const devices::Ue& ue, int day, int bin,
                                   util::Rng& rng) const {
    return locator_->locate(position, rat_class, ue, day, bin, rng);
  }
  /// Epoch-checked obs handle refresh, called at the top of run_day (a
  /// single-threaded boundary). Simulators are long-lived — the throughput
  /// bench installs a registry after the world build — so handles cannot be
  /// captured at construction.
  void resolve_obs();

  StudyConfig config_;
  std::unique_ptr<geo::Country> country_;
  std::unique_ptr<topology::Deployment> deployment_;
  std::unique_ptr<devices::Catalog> catalog_;
  std::unique_ptr<devices::Population> population_;
  std::unique_ptr<ran::CoverageMap> coverage_;
  mobility::ActivityModel activity_;
  std::unique_ptr<mobility::TraceGenerator> traces_;
  std::unique_ptr<ran::TargetSelector> selector_;
  std::unique_ptr<ran::SectorLocator> locator_;
  std::unique_ptr<policy::HandoverPolicy> policy_;
  /// Const world view the policy sees, set once at construction (the
  /// referenced components are stable after it).
  policy::PolicyEnv policy_env_;
  ran::LoadModel load_model_;
  topology::EnergySavingPolicy energy_;
  corenet::FailureModel failure_model_;
  corenet::DurationModel durations_;
  corenet::CauseCatalog causes_;
  corenet::HandoverProcedure procedure_;
  corenet::CoreNetwork core_;
  faults::RecoveryModel recovery_;

  /// Cached per-UE plans (stable across days).
  std::vector<mobility::UePlan> plans_;

  std::vector<telemetry::RecordSink*> sinks_;
  std::vector<telemetry::MetricsSink*> metrics_sinks_;
  telemetry::DurableRecordSink* durable_ = nullptr;
  /// Parallel engine, created on the first sharded day and kept across days
  /// (and across set_threads() calls that don't change the count). The one
  /// scheduler: supervised days run on it too.
  std::unique_ptr<exec::ShardedDayRunner> runner_;
  /// Reusable staging slots (see DayShards), supervised or not. Rebuilt
  /// only when the slot count changes; released wholesale under memory
  /// pressure.
  std::unique_ptr<DayShards> day_shards_;
  supervise::StudySupervisor* supervisor_ = nullptr;
  /// UEs withdrawn from the study by supervised degradation (sorted,
  /// unique). Part of the checkpoint: resume must skip the same UEs.
  std::vector<devices::UeId> quarantined_ues_;
  std::uint64_t records_emitted_ = 0;
  int next_day_ = 0;

  std::uint64_t obs_epoch_ = UINT64_MAX;
  /// Epoch the runner_'s construction-captured handles belong to; a registry
  /// swap forces a runner (and pool) rebuild on the next sharded day.
  std::uint64_t runner_obs_epoch_ = UINT64_MAX;
  obs::Counter obs_days_;
  obs::Counter obs_ue_days_;
  obs::Counter obs_records_;
  obs::Gauge obs_quarantined_;
  obs::Histogram obs_day_seconds_;
  /// Serial-day span recorded into the shared "tl_exec_shard_sim_seconds"
  /// family so --profile stage accounting works at 1 thread too.
  obs::Histogram obs_serial_sim_seconds_;
};

}  // namespace tl::core
