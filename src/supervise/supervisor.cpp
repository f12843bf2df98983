#include "supervise/supervisor.hpp"

#include <algorithm>
#include <utility>

#include "exec/sharded_runner.hpp"
#include "obs/scoped_timer.hpp"
#include "util/rng.hpp"

namespace tl::supervise {
namespace {

std::size_t live_items(const std::vector<std::uint32_t>& skip, std::size_t first,
                       std::size_t last) {
  const auto lo = std::lower_bound(skip.begin(), skip.end(),
                                   static_cast<std::uint32_t>(first));
  const auto hi = std::lower_bound(skip.begin(), skip.end(),
                                   static_cast<std::uint32_t>(last));
  return (last - first) - static_cast<std::size_t>(hi - lo);
}

void insert_sorted(std::vector<std::uint32_t>& skip, std::uint32_t item) {
  skip.insert(std::lower_bound(skip.begin(), skip.end(), item), item);
}

/// A shard's ladder policy: the configured one, with the jitter seed derived
/// from (day, shard) so backoff is keyed by day, shard and attempt.
RetryPolicy shard_policy(const RetryPolicy& retry, int day, std::size_t shard) {
  RetryPolicy policy = retry;
  policy.jitter_seed = util::derive_seed(retry.jitter_seed, static_cast<std::uint64_t>(day),
                                         static_cast<std::uint64_t>(shard));
  return policy;
}

/// What one shard's ladder leaves for run_day to fold in on the caller thread.
struct ShardLadder {
  ShardOutcome outcome;
  std::uint64_t probes = 0;
  std::uint64_t degraded_retries = 0;
  std::vector<QuarantinedItem> quarantined;
};

/// Probes halves of [first, last) until the deterministically failing items
/// are isolated; quarantines them into `ladder` and `skip`. Each probe is a
/// one-attempt ladder: a failure of any kind convicts its range, and only the
/// deadline (and the degraded re-run) carry over from the shard's policy.
void isolate(const SupervisorOptions& options, int day, std::size_t first,
             std::size_t last, std::vector<std::uint32_t>& skip, ShardLadder& ladder,
             const StudySupervisor::ProbeFn& probe) {
  RetryPolicy probe_policy = options.retry;
  probe_policy.max_retries = 0;
  const auto probe_range = [&](std::size_t lo, std::size_t hi) -> Status {
    ++ladder.probes;
    const RetryReport report = run_with_retries(
        probe_policy, "bisection probe",
        [&](const CancelToken& token) { probe(lo, hi, &token, skip); });
    return report.ok() ? Status::ok() : report.failures.back();
  };
  // Depth-first halving. Both halves of a failing range are probed — a shard
  // can hide several poison items. A range that fails while both its halves
  // pass contributes nothing (interaction/flaky), and the ladder re-runs the
  // shard instead.
  const std::function<void(std::size_t, std::size_t)> descend =
      [&](std::size_t lo, std::size_t hi) {
        if (live_items(skip, lo, hi) == 0) return;
        const Status status = probe_range(lo, hi);
        if (status.is_ok()) return;
        if (live_items(skip, lo, hi) == 1) {
          std::uint32_t item = 0;
          for (std::size_t i = lo; i < hi; ++i) {
            if (!std::binary_search(skip.begin(), skip.end(),
                                    static_cast<std::uint32_t>(i))) {
              item = static_cast<std::uint32_t>(i);
              break;
            }
          }
          insert_sorted(skip, item);
          QuarantinedItem q;
          q.item = item;
          q.day = day;
          q.shard = ladder.outcome.shard;
          q.status = status;
          q.trail = ladder.outcome.trail;
          ladder.quarantined.push_back(std::move(q));
          return;
        }
        const std::size_t mid = lo + (hi - lo) / 2;
        descend(lo, mid);
        descend(mid, hi);
      };
  descend(first, last);
}

/// One shard's reaction ladder, on the shard's worker thread: attempts through
/// run_with_retries; on a permanent or exhausted failure, bisect the shard's
/// own range, quarantine the culprits and run the attempts again over the
/// survivors — at most max_bisection_rounds times.
ShardLadder run_ladder(const SupervisorOptions& options, int day, std::size_t shard,
                       std::size_t first, std::size_t last,
                       std::vector<std::uint32_t> skip,
                       const StudySupervisor::SimulateFn& simulate,
                       const StudySupervisor::ProbeFn& probe) {
  ShardLadder ladder;
  ShardOutcome& outcome = ladder.outcome;
  outcome.shard = shard;
  outcome.first = first;
  outcome.last = last;
  const RetryPolicy policy = shard_policy(options.retry, day, shard);
  const std::string what = "shard " + std::to_string(shard) + " of day " + std::to_string(day);
  for (int round = 0;; ++round) {
    int attempt = 0;  // the injector's task channel counts attempts per round
    const RetryReport report =
        run_with_retries(policy, what, [&](const CancelToken& token) {
          ++attempt;
          if (options.injector != nullptr) {
            options.injector->on_task_begin(day, shard, attempt, &token);
          }
          simulate(shard, first, last, &token, skip);
        });
    int number = outcome.attempts;  // a round's failed attempts come first
    for (const Status& failure : report.failures) {
      outcome.trail.push_back({++number, failure.code(), failure.message()});
    }
    outcome.attempts += report.attempts;
    ladder.degraded_retries += static_cast<std::uint64_t>(report.degraded_retries);
    if (report.ok()) {
      outcome.status = Status::ok();
      return ladder;
    }
    if (!options.quarantine_enabled) {
      throw SupervisionError{what + " failed and quarantine is disabled: " +
                             report.status.to_string()};
    }
    if (round >= options.max_bisection_rounds) {
      throw SupervisionError{what + " still failing after " +
                             std::to_string(options.max_bisection_rounds) +
                             " bisection rounds: " + report.status.to_string()};
    }
    // Whether bisection condemns items or the failure refuses to reproduce
    // (flaky beyond the retry budget), the next round re-runs the shard over
    // the survivors with a fresh retry budget.
    isolate(options, day, first, last, skip, ladder, probe);
  }
}

}  // namespace

StudySupervisor::StudySupervisor(SupervisorOptions options)
    : options_(std::move(options)) {}

void StudySupervisor::resolve_obs() {
  const std::uint64_t epoch = obs::global_epoch();
  if (epoch == obs_epoch_) return;
  obs_epoch_ = epoch;
  obs_attempts_ = obs::counter("tl_supervise_shard_attempts_total",
                               "Shard attempts, including first tries");
  obs_retries_ = obs::counter("tl_supervise_retries_total",
                              "Shard attempts beyond each shard's first");
  obs_timeouts_ = obs::counter("tl_supervise_timeouts_total",
                               "Shard attempts cancelled by the watchdog");
  obs_probes_ = obs::counter("tl_supervise_bisection_probes_total",
                             "Bisection probes run to isolate poison items");
  obs_quarantined_ = obs::counter("tl_supervise_quarantined_total",
                                  "Items condemned to quarantine");
  obs_quarantine_size_ = obs::gauge("tl_supervise_quarantine_size",
                                    "Items in the cumulative quarantine set");
  obs_day_seconds_ =
      obs::histogram("tl_supervise_day_seconds",
                     obs::MetricsRegistry::latency_edges_s(),
                     "Wall time per supervised day");
}

std::uint64_t StudySupervisor::backoff_ms(int day, std::size_t shard,
                                          int attempt) const {
  return retry_backoff_ms(shard_policy(options_.retry, day, shard), attempt);
}

DayReport StudySupervisor::run_day(exec::ShardedDayRunner& runner, int day,
                                   std::size_t item_count,
                                   std::span<const std::uint32_t> quarantined,
                                   const SimulateFn& simulate, const ProbeFn& probe,
                                   const MergeFn& merge) {
  resolve_obs();
  obs::ScopedTimer day_span{obs_day_seconds_};
  DayReport report;
  report.day = day;
  if (item_count == 0) {
    ++summary_.days;
    day_span.cancel();
    return report;
  }

  std::vector<std::uint32_t> skip(quarantined.begin(), quarantined.end());
  std::sort(skip.begin(), skip.end());
  skip.erase(std::unique(skip.begin(), skip.end()), skip.end());

  report.shards = runner.shard_count(item_count);
  std::vector<ShardLadder> ladders(report.shards);
  runner.run(
      item_count,
      [&](std::size_t shard, std::size_t first, std::size_t last) {
        // The ladder owns the slice of the skip list inside its range and
        // grows it as it quarantines; no other shard reads it.
        const auto lo = std::lower_bound(skip.begin(), skip.end(),
                                         static_cast<std::uint32_t>(first));
        const auto hi = std::lower_bound(lo, skip.end(), static_cast<std::uint32_t>(last));
        ladders[shard] = run_ladder(options_, day, shard, first, last, {lo, hi},
                                    simulate, probe);
      },
      merge);

  // Every shard succeeded: fold the ladders in shard order.
  std::uint64_t attempts = 0;
  for (ShardLadder& ladder : ladders) {
    ShardOutcome& outcome = ladder.outcome;
    attempts += static_cast<std::uint64_t>(outcome.attempts);
    report.retries += static_cast<std::uint64_t>(outcome.attempts - 1);
    for (const ShardAttempt& failed : outcome.trail) {
      if (failed.code == StatusCode::kDeadlineExceeded) ++report.timeouts;
      if (is_retryable(failed.code)) {
        ++summary_.transient_failures;
      } else {
        ++summary_.permanent_failures;
      }
    }
    report.bisection_probes += ladder.probes;
    report.degraded_retries += ladder.degraded_retries;
    for (QuarantinedItem& q : ladder.quarantined) report.quarantined.push_back(std::move(q));
    report.outcomes.push_back(std::move(outcome));
  }
  std::sort(report.quarantined.begin(), report.quarantined.end(),
            [](const QuarantinedItem& a, const QuarantinedItem& b) {
              return a.item < b.item;
            });
  if (options_.on_quarantine) {
    for (const QuarantinedItem& q : report.quarantined) options_.on_quarantine(q);
  }

  ++summary_.days;
  if (report.degraded()) ++summary_.degraded_days;
  summary_.shard_attempts += attempts;
  summary_.retries += report.retries;
  summary_.timeouts += report.timeouts;
  summary_.bisection_probes += report.bisection_probes;
  summary_.degraded_retries += report.degraded_retries;
  for (const QuarantinedItem& q : report.quarantined) {
    summary_.quarantine.items.push_back(q);
  }
  std::sort(summary_.quarantine.items.begin(), summary_.quarantine.items.end(),
            [](const QuarantinedItem& a, const QuarantinedItem& b) {
              return a.item != b.item ? a.item < b.item : a.day < b.day;
            });

  obs_attempts_.inc(attempts);
  obs_retries_.inc(report.retries);
  obs_timeouts_.inc(report.timeouts);
  obs_probes_.inc(report.bisection_probes);
  obs_quarantined_.inc(report.quarantined.size());
  obs_quarantine_size_.set(static_cast<double>(summary_.quarantine.items.size()));
  return report;
}

}  // namespace tl::supervise
