#include "supervise/retry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "govern/governor.hpp"
#include "util/rng.hpp"

namespace tl::supervise {
namespace {

/// Arms `token` with kDeadlineExceeded after `deadline_ms` unless disarmed
/// first. One watchdog per attempt; joined before the next attempt starts,
/// so the token it cancels is always the attempt it was armed for.
class AttemptWatchdog {
 public:
  AttemptWatchdog(CancelToken& token, std::uint64_t deadline_ms)
      : thread_([this, &token, deadline_ms] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, std::chrono::milliseconds(deadline_ms),
                            [this] { return disarmed_; })) {
            token.cancel(StatusCode::kDeadlineExceeded);
          }
        }) {}

  ~AttemptWatchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      disarmed_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::thread thread_;
};

}  // namespace

std::uint64_t retry_backoff_ms(const RetryPolicy& policy, int attempt) {
  if (attempt <= 1) return 0;
  const double base =
      static_cast<double>(policy.backoff_initial_ms) *
      std::pow(policy.backoff_multiplier, static_cast<double>(attempt - 2));
  const double capped =
      std::min(base, static_cast<double>(policy.backoff_cap_ms));
  const double jitter =
      util::Rng::derive(policy.jitter_seed, static_cast<std::uint64_t>(attempt))
          .uniform(0.5, 1.5);
  return static_cast<std::uint64_t>(capped * jitter);
}

RetryReport run_with_retries(const RetryPolicy& policy, const std::string& what,
                             const std::function<void(const CancelToken&)>& fn) {
  RetryReport report;
  int max_attempts = 1 + std::max(0, policy.max_retries);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    const std::uint64_t backoff = retry_backoff_ms(policy, attempt);
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    ++report.attempts;
    if (attempt > 1) ++report.retries;
    CancelToken token;
    Status status;
    try {
      if (policy.attempt_deadline_ms > 0) {
        AttemptWatchdog watchdog(token, policy.attempt_deadline_ms);
        fn(token);
      } else {
        fn(token);
      }
      report.status = Status::ok();
      return report;
    } catch (...) {
      // SimulatedCrash rethrows from inside classify_exception.
      status = classify_exception(std::current_exception());
    }
    report.failures.push_back(status);
    if (status.code() == StatusCode::kDeadlineExceeded) ++report.timeouts;
    report.status = Status{
        status.code(), what + " (attempt " + std::to_string(attempt) + "/" +
                           std::to_string(max_attempts) + "): " +
                           status.message()};
    if (!status.retryable()) {
      // kResourceExhausted earns exactly one extra attempt *after* the
      // governor has been told to shed (record_allocation_failure pins the
      // pressure level at Critical for a hold period). Without a governor
      // there is nothing to shed, so the failure stays permanent.
      govern::MemoryBudget* governor = govern::global_governor();
      if (report.degraded_retries == 0 && governor != nullptr &&
          is_retryable_with_degradation(status.code())) {
        governor->record_allocation_failure();
        ++report.degraded_retries;
        ++max_attempts;
        continue;
      }
      return report;
    }
  }
  // Retries exhausted on a retryable failure: surface as kAborted, the
  // taxonomy's "supervision itself gave up" code, keeping the last cause.
  report.status =
      Status{StatusCode::kAborted, what + ": retries exhausted; last: " +
                                       report.status.to_string()};
  return report;
}

}  // namespace tl::supervise
