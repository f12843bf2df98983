#pragma once

// Typed error taxonomy for supervised execution.
//
// A four-week countrywide run does not fail with one clean exception type:
// it sees transient I/O errors, hung workers, poisoned inputs, and genuine
// logic bugs, and each demands a different reaction (retry, cancel, bisect,
// abort). tl::Status is the single currency those decisions trade in:
// exceptions from the exec and io layers are converted exactly once, at the
// shard-task boundary, by classify_exception(), and everything above (retry
// policy, quarantine, reports) works with typed codes instead of
// string-matching on what().

#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>

namespace tl {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  /// Cooperative cancellation was requested and honored.
  kCancelled,
  /// The watchdog fired a shard deadline. Retryable: a hang can be a
  /// scheduling accident, not a property of the work.
  kDeadlineExceeded,
  /// Transient storage failure (EIO, failed fsync, short write). Retryable:
  /// the durable protocol already treats these as "commit did not happen".
  kUnavailable,
  /// Allocation failure (bad_alloc, length_error). Not blindly retryable —
  /// retrying under the same memory pressure just thrashes — but retryable
  /// *with degradation*: after the governor sheds detail
  /// (record_allocation_failure pins Critical), one more attempt is sound.
  kResourceExhausted,
  /// A precondition was violated (std::invalid_argument and friends). Not
  /// retryable: the same call will fail the same way.
  kInvalidArgument,
  /// A logic error, or a deterministic failure pinned to specific input.
  /// Not retryable; this is what bisection condemns poison UEs with.
  kInternal,
  /// An exception we could not classify. Retryable a bounded number of
  /// times — unknown failures are assumed transient until proven otherwise.
  kUnknown,
  /// Supervision itself gave up (retries and bisection exhausted).
  kAborted,
};

std::string_view to_string(StatusCode code) noexcept;

/// Retry policy hook: transient codes may be re-attempted (with backoff),
/// permanent ones go straight to bisection/quarantine.
bool is_retryable(StatusCode code) noexcept;

/// Codes that must NOT be retried as-is, but earn one more attempt after
/// the resource governor has been told to degrade (currently only
/// kResourceExhausted). The retry helpers consult this when a global
/// govern::MemoryBudget is installed; without one the code stays permanent.
bool is_retryable_with_degradation(StatusCode code) noexcept;

/// A code plus human-readable context. Default-constructed Status is OK.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status{}; }

  bool is_ok() const noexcept { return code_ == StatusCode::kOk; }
  StatusCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }
  bool retryable() const noexcept { return is_retryable(code_); }

  /// "DEADLINE_EXCEEDED: shard 3 exceeded 500 ms" style rendering.
  std::string to_string() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

namespace supervise {

/// Throw this to signal "transient, please retry" explicitly (maps to
/// kUnavailable). The I/O layer's io::IoError classifies the same way.
class TransientError : public std::runtime_error {
 public:
  explicit TransientError(const std::string& what) : std::runtime_error(what) {}
};

/// Throw this to signal "deterministic, do not retry" explicitly (maps to
/// kInternal). The poison-UE injector uses it; real code can too.
class PermanentError : public std::runtime_error {
 public:
  explicit PermanentError(const std::string& what) : std::runtime_error(what) {}
};

/// Maps an in-flight exception to a Status:
///
///   CancelledError            -> its embedded code (kCancelled / kDeadlineExceeded)
///   io::IoError               -> kUnavailable          (retryable)
///   TransientError            -> kUnavailable          (retryable)
///   PermanentError            -> kInternal             (permanent)
///   std::bad_alloc            -> kResourceExhausted    (degraded-retryable)
///   std::length_error         -> kResourceExhausted    (degraded-retryable;
///                                 a container hitting max_size is an
///                                 allocation failure in logic_error's coat)
///   std::invalid_argument     -> kInvalidArgument      (permanent)
///   std::logic_error          -> kInternal             (permanent)
///   anything else             -> kUnknown              (retryable, bounded)
///
/// io::SimulatedCrash is deliberately NOT mapped: a simulated process death
/// must never be absorbed into a retry loop, so classify rethrows it.
Status classify_exception(std::exception_ptr error);

}  // namespace supervise
}  // namespace tl
