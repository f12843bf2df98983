#pragma once

// StudySupervisor: graceful degradation for long sharded studies.
//
// The paper's telco pipeline runs for four weeks over ~40M UEs; at that
// scale the realistic failure is partial — a stuck worker, a transient EIO,
// one pathological UE — and the naive response (unwind, abort the study) is
// exactly wrong. The supervisor wraps the deterministic ShardedDayRunner
// with the reaction ladder an always-on system needs:
//
//   attempt --ok--------------------------------> staged, merge later
//      |
//      | failure (classified into tl::Status by classify_exception)
//      v
//   retryable? --yes, attempts left--> backoff (capped exponential, seeded
//      |                               jitter) --> retry
//      | no (permanent, or retries exhausted)
//      v
//   bisect: probe halves of the shard on the caller thread until the
//   failing item(s) are isolated --> quarantine them, re-run the shard
//   over the survivors (bounded by max_bisection_rounds)
//
// Determinism contract: retries, deadlines, backoff, and bisection all
// happen BEFORE any merge — shard results stage into per-shard buffers and
// merge in ascending shard order only after every shard has succeeded, so
// the record stream stays byte-identical to a serial run over the surviving
// population no matter which faults fired where. Quarantine decisions are
// driven only by per-item behavior (every attempt at a poison item fails),
// never by shard geometry, so the quarantined set is identical at any
// thread count.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "supervise/cancellation.hpp"
#include "supervise/status.hpp"
#include "supervise/task_fault_injector.hpp"

namespace tl::exec {
class ShardedDayRunner;
}

namespace tl::supervise {

/// One failed attempt of a shard, kept for the quarantine report.
struct ShardAttempt {
  int attempt = 0;
  StatusCode code = StatusCode::kOk;
  std::string message;
};

/// The structured outcome of one shard of one day — what used to be "an
/// exception somewhere in the pool".
struct ShardOutcome {
  std::size_t shard = 0;
  std::size_t first = 0;
  std::size_t last = 0;
  Status status;
  int attempts = 0;
  std::vector<ShardAttempt> trail;  ///< failed attempts, in order
};

/// One quarantined item (UE), with the evidence that condemned it.
struct QuarantinedItem {
  std::uint32_t item = 0;
  int day = 0;
  std::size_t shard = 0;
  Status status;                    ///< the probe failure that isolated it
  std::vector<ShardAttempt> trail;  ///< the owning shard's attempt trail
};

struct QuarantineReport {
  std::vector<QuarantinedItem> items;  ///< sorted by item id
};

/// Per-day supervision result.
struct DayReport {
  int day = 0;
  std::size_t shards = 0;
  std::uint64_t retries = 0;   ///< attempts beyond each shard's first
  std::uint64_t timeouts = 0;  ///< attempts cancelled by the watchdog
  std::uint64_t bisection_probes = 0;
  /// Shard re-runs granted after a kResourceExhausted failure escalated the
  /// global governor (at most one per shard per day).
  std::uint64_t degraded_retries = 0;
  std::vector<QuarantinedItem> quarantined;  ///< sorted by item id
  std::vector<ShardOutcome> outcomes;        ///< final outcome per shard

  bool degraded() const noexcept { return retries > 0 || !quarantined.empty(); }
};

/// Study-cumulative counters, surfaced in network_ops_report/incident_drill.
struct SupervisionSummary {
  std::uint64_t days = 0;
  std::uint64_t degraded_days = 0;  ///< days with retries or quarantine
  std::uint64_t shard_attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t transient_failures = 0;
  std::uint64_t permanent_failures = 0;
  std::uint64_t bisection_probes = 0;
  std::uint64_t degraded_retries = 0;  ///< governor-escalated shard re-runs
  QuarantineReport quarantine;  ///< cumulative, sorted by (item, day)
};

/// Supervision itself gave up: quarantine disabled, or a shard kept failing
/// across max_bisection_rounds re-runs without a reproducible culprit.
class SupervisionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct SupervisorOptions {
  /// Worker threads (0 = hardware), shards per worker — same semantics as
  /// ShardedDayRunner::Options. Supervision keeps the finer default shard
  /// grain (4/worker): smaller shards are cheaper to retry and bisect,
  /// which matters more here than shaving fixed per-shard cost.
  unsigned threads = 0;
  unsigned shards_per_thread = 4;

  /// Re-attempts allowed per shard after its first try (per bisection round).
  int max_retries = 4;
  /// Capped exponential backoff between attempts of the same shard:
  /// min(cap, initial * multiplier^(retry-1)), scaled by a seeded jitter
  /// factor in [0.5, 1.5). Slept on the worker thread — never affects
  /// output bytes.
  std::uint64_t backoff_initial_ms = 5;
  std::uint64_t backoff_cap_ms = 200;
  double backoff_multiplier = 2.0;
  std::uint64_t jitter_seed = 0x5eedULL;

  /// Per-shard-attempt deadline enforced by the watchdog thread via
  /// cooperative cancellation (0 = no deadline). Also applied to bisection
  /// probes.
  std::uint64_t shard_deadline_ms = 0;

  /// When false, a shard that exhausts retries throws SupervisionError
  /// instead of bisecting (strict mode for tests / short runs).
  bool quarantine_enabled = true;
  /// How many times one shard may go through bisect-and-re-run in a single
  /// day before the supervisor declares the failure non-isolatable.
  int max_bisection_rounds = 3;

  /// Optional chaos seam: consulted at the top of every shard attempt
  /// (task channel). The per-item poison channel is the caller's to wire
  /// into its simulate/probe callbacks (the simulator passes it to its
  /// UE loop through the EmitFrame). Borrowed; may be null.
  const TaskFaultInjector* injector = nullptr;

  /// Invoked (on the supervising thread) for every item as it is
  /// quarantined — the telemetry hook for quarantine events.
  std::function<void(const QuarantinedItem&)> on_quarantine;
};

class Watchdog;  // deadline enforcement thread (internal to supervisor.cpp)

class StudySupervisor {
 public:
  explicit StudySupervisor(SupervisorOptions options);
  ~StudySupervisor();

  StudySupervisor(const StudySupervisor&) = delete;
  StudySupervisor& operator=(const StudySupervisor&) = delete;

  const SupervisorOptions& options() const noexcept { return options_; }
  unsigned thread_count() const noexcept;
  /// Shard geometry — identical to the wrapped ShardedDayRunner's.
  std::size_t shard_count(std::size_t item_count) const noexcept;

  /// The backoff the given retry will sleep (jitter included); exposed so
  /// tests can pin the policy down without measuring wall clock.
  std::uint64_t backoff_ms(int day, std::size_t shard, int attempt) const;

  /// Simulate items [first, last) of `shard` into per-shard staging, from a
  /// worker thread. MUST reset its shard's staging on entry (retries re-run
  /// it), skip items in `skip` (sorted), poll `cancel` (also threaded into
  /// the EmitFrame hot loop), and touch nothing shared.
  using SimulateFn = std::function<void(
      std::size_t shard, std::size_t first, std::size_t last,
      const CancelToken* cancel, std::span<const std::uint32_t> skip)>;

  /// Bisection probe: simulate items [first, last) into throwaway staging,
  /// on the calling thread. Same skip/cancel contract as SimulateFn. Kept
  /// separate so probes replay only per-item behavior — the injector's task
  /// channel is deliberately not consulted, which is what makes quarantine
  /// decisions independent of shard geometry.
  using ProbeFn =
      std::function<void(std::size_t first, std::size_t last,
                         const CancelToken* cancel, std::span<const std::uint32_t> skip)>;

  /// Fold shard staging into global state; calling thread, ascending shard
  /// order, only after EVERY shard has succeeded.
  using MergeFn = std::function<void(std::size_t shard)>;

  /// Supervises one day over `item_count` items, of which `quarantined`
  /// (sorted ids) are skipped from the start. Returns the day's report;
  /// newly quarantined items are in DayReport::quarantined (the caller owns
  /// folding them into its persistent set). Throws SupervisionError when
  /// degradation is impossible (see SupervisorOptions), and propagates
  /// io::SimulatedCrash untouched. Successful attempts and merges are booked
  /// into the engine's stage metrics (tl_exec_shards_simulated_total,
  /// tl_exec_shard_sim_seconds, tl_exec_shard_merge_seconds) as
  /// ShardedDayRunner books its shards; failed attempts stay out of them.
  DayReport run_day(int day, std::size_t item_count,
                    std::span<const std::uint32_t> quarantined,
                    const SimulateFn& simulate, const ProbeFn& probe,
                    const MergeFn& merge);

  const SupervisionSummary& summary() const noexcept { return summary_; }
  void reset_summary() { summary_ = SupervisionSummary{}; }

 private:
  struct ShardState;

  /// Probes halves of [state.first, state.last) until the deterministically
  /// failing items are isolated; quarantines them into `report` and `skip`.
  /// Returns how many items were condemned (0 = failure did not reproduce).
  std::size_t isolate(int day, std::size_t shard, const ShardState& state,
                      std::vector<std::uint32_t>& skip, DayReport& report,
                      const ProbeFn& probe);

  /// Re-resolves the obs handles when the global registry changed since the
  /// last run_day. Called at the top of run_day (single-threaded boundary).
  void resolve_obs();

  SupervisorOptions options_;
  std::unique_ptr<exec::ShardedDayRunner> runner_;
  std::unique_ptr<Watchdog> watchdog_;
  SupervisionSummary summary_;

  // Supervisors outlive registry swaps (a bench reuses one across arms), so
  // handles are epoch-checked rather than construction-captured.
  std::uint64_t obs_epoch_ = UINT64_MAX;
  obs::Counter obs_attempts_;
  obs::Counter obs_retries_;
  obs::Counter obs_timeouts_;
  obs::Counter obs_probes_;
  obs::Counter obs_quarantined_;
  obs::Gauge obs_quarantine_size_;
  obs::Histogram obs_day_seconds_;
  obs::Counter obs_shards_simulated_;
  obs::Histogram obs_shard_sim_seconds_;
  obs::Histogram obs_shard_merge_seconds_;
};

}  // namespace tl::supervise
