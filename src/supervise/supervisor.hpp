#pragma once

// StudySupervisor: graceful degradation for long sharded studies.
//
// The paper's telco pipeline runs for four weeks over ~40M UEs; at that
// scale the realistic failure is partial — a stuck worker, a transient EIO,
// one pathological UE — and the naive response (unwind, abort the study) is
// exactly wrong. The supervisor schedules nothing itself: run_day hands the
// caller's exec::ShardedDayRunner a wrapped shard callback, so a supervised
// day gets the runner's geometry, backpressure gate and pipelined ordered
// merge, and each shard runs this ladder on its own worker thread:
//
//   attempts (run_with_retries: classify, back off with capped-exponential
//   seeded jitter keyed by day/shard/attempt, per-attempt deadline, one
//   degraded re-run after a governor escalation)
//      | ok --> staged; the runner merges it in ascending shard order
//      | permanent, or retries exhausted
//      v
//   bisect: probe halves of the shard's own range, on the same thread, until
//   the failing item(s) are isolated --> quarantine them, run the attempts
//   again over the survivors (at most max_bisection_rounds times, then
//   SupervisionError)
//
// Determinism contract: a shard's staging merges only after its ladder
// succeeded, and the runner merges shards in ascending order, so the record
// stream stays byte-identical to a serial run over the surviving population
// no matter which faults fired where. Quarantine decisions are driven only
// by per-item behavior (every attempt at a poison item fails), never by
// shard geometry, so the quarantined set is identical at any thread count.
// A day that gives up may already have merged the shards before the failing
// one; the caller rolls the day back (Simulator::run_day does, as for any
// failed day).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "supervise/cancellation.hpp"
#include "supervise/retry.hpp"
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
  /// Re-runs granted after a kResourceExhausted failure escalated the global
  /// governor (at most one per run_with_retries call: per shard and
  /// bisection round, or per probe).
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
  /// Every shard's attempt ladder. Backoff jitter stays keyed by (day,
  /// shard, attempt): a shard's ladder runs with jitter_seed derived from
  /// (retry.jitter_seed, day, shard). retry.attempt_deadline_ms is the
  /// per-attempt watchdog deadline (0 = none), also applied to bisection
  /// probes. Backoff sleeps on the worker thread — never affects bytes.
  RetryPolicy retry;

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

  /// Invoked on the thread that called run_day, once every shard of the day
  /// has succeeded, for each newly quarantined item in item order — the
  /// telemetry hook for quarantine events.
  std::function<void(const QuarantinedItem&)> on_quarantine;
};

class StudySupervisor {
 public:
  explicit StudySupervisor(SupervisorOptions options);

  StudySupervisor(const StudySupervisor&) = delete;
  StudySupervisor& operator=(const StudySupervisor&) = delete;

  const SupervisorOptions& options() const noexcept { return options_; }

  /// The backoff the given retry of a shard sleeps (jitter included): the
  /// retry_backoff_ms of that shard's derived policy. Exposed so tests can
  /// pin the policy down without measuring wall clock.
  std::uint64_t backoff_ms(int day, std::size_t shard, int attempt) const;

  /// Simulate items [first, last) of `shard` into its staging slot
  /// (ShardedDayRunner::slot_count), from a worker thread. MUST reset that
  /// staging on entry (retries re-run it), skip items in `skip` (sorted),
  /// poll `cancel` (also threaded into the EmitFrame hot loop), and touch
  /// nothing shared.
  using SimulateFn = std::function<void(
      std::size_t shard, std::size_t first, std::size_t last,
      const CancelToken* cancel, std::span<const std::uint32_t> skip)>;

  /// Bisection probe: simulate items [first, last) into throwaway staging,
  /// on the failing shard's worker thread. Same skip/cancel contract as
  /// SimulateFn. Kept separate so probes replay only per-item behavior —
  /// the injector's task channel is deliberately not consulted, which is
  /// what makes quarantine decisions independent of shard geometry.
  using ProbeFn =
      std::function<void(std::size_t first, std::size_t last,
                         const CancelToken* cancel, std::span<const std::uint32_t> skip)>;

  /// Fold shard staging into global state; calling thread, ascending shard
  /// order, each shard once it and every earlier shard have succeeded.
  using MergeFn = std::function<void(std::size_t shard)>;

  /// Supervises one day over `item_count` items with one runner.run() call
  /// (the runner's threads and shard geometry), skipping `quarantined`
  /// (sorted ids) from the start. Returns the day's report; newly
  /// quarantined items are in DayReport::quarantined (the caller owns
  /// folding them into its persistent set). Throws SupervisionError when
  /// degradation is impossible (see SupervisorOptions) and propagates
  /// io::SimulatedCrash untouched; after either, earlier shards may already
  /// have merged, and the summary is left as it was before the day. Stage
  /// metrics are the runner's: one simulated shard and one sim span per
  /// shard, the span covering the shard's whole ladder.
  DayReport run_day(exec::ShardedDayRunner& runner, int day, std::size_t item_count,
                    std::span<const std::uint32_t> quarantined,
                    const SimulateFn& simulate, const ProbeFn& probe,
                    const MergeFn& merge);

  const SupervisionSummary& summary() const noexcept { return summary_; }
  void reset_summary() { summary_ = SupervisionSummary{}; }

 private:
  /// Re-resolves the obs handles when the global registry changed since the
  /// last run_day. Called at the top of run_day (single-threaded boundary).
  void resolve_obs();

  SupervisorOptions options_;
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
};

}  // namespace tl::supervise
