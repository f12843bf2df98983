#pragma once

// The one retry ladder: run_with_retries drives every supervised attempt —
// each shard attempt and each bisection probe of a supervised day
// (StudySupervisor runs one ladder per shard on the shard's worker thread).
// It classifies each failure with the shared taxonomy (status.hpp), backs
// off on a capped-exponential, seeded-jitter schedule, optionally arms a
// per-attempt deadline watchdog through a fresh CancelToken, grants one
// degraded re-run after a kResourceExhausted failure escalates the global
// governor, and gives up with a typed Status instead of an exception.
//
// Crash semantics: io::SimulatedCrash is never absorbed — it propagates out
// so chaos harnesses see the process "die".

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "supervise/cancellation.hpp"
#include "supervise/status.hpp"

namespace tl::supervise {

struct RetryPolicy {
  /// Attempts = 1 + max_retries; only retryable Status codes re-attempt.
  int max_retries = 4;
  /// Capped exponential backoff between attempts, scaled by a seeded jitter
  /// in [0.5, 1.5): min(cap, initial * multiplier^(retry-1)).
  std::uint64_t backoff_initial_ms = 5;
  std::uint64_t backoff_cap_ms = 200;
  double backoff_multiplier = 2.0;
  std::uint64_t jitter_seed = 0x5eedULL;
  /// Per-attempt deadline; 0 disables. When set, a watchdog thread cancels
  /// the attempt's token with kDeadlineExceeded after this many ms — the
  /// operation must poll the token to honor it (cooperative, like shards).
  std::uint64_t attempt_deadline_ms = 0;
};

struct RetryReport {
  Status status;       ///< final outcome (ok, or the last failure)
  int attempts = 0;    ///< total attempts made (>= 1 unless max_retries < 0)
  int retries = 0;     ///< attempts beyond the first
  int timeouts = 0;    ///< attempts that ended in kDeadlineExceeded
  /// Extra attempts granted after a kResourceExhausted failure escalated
  /// the global governor to Critical (at most one per run_with_retries).
  int degraded_retries = 0;
  /// Each failed attempt's classified Status, in attempt order (unprefixed:
  /// the code and message the operation threw).
  std::vector<Status> failures;
  bool ok() const noexcept { return status.is_ok(); }
};

/// Runs `fn` until it succeeds, a permanent failure is classified, or
/// retries are exhausted. `what` labels the operation in Status messages.
/// The token passed to `fn` is fresh per attempt; poll it in long loops.
/// io::SimulatedCrash propagates without being counted as an attempt
/// outcome (the "process" is dead; there is no one left to retry).
RetryReport run_with_retries(const RetryPolicy& policy, const std::string& what,
                             const std::function<void(const CancelToken&)>& fn);

/// The backoff a given retry sleeps (jitter included); exposed for tests.
std::uint64_t retry_backoff_ms(const RetryPolicy& policy, int attempt);

}  // namespace tl::supervise
