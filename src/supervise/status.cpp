#include "supervise/status.hpp"

#include <new>

#include "io/file.hpp"
#include "supervise/cancellation.hpp"

namespace tl {

std::string_view to_string(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kCancelled: return "CANCELLED";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kUnknown: return "UNKNOWN";
    case StatusCode::kAborted: return "ABORTED";
  }
  return "BAD_STATUS_CODE";
}

bool is_retryable(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
    case StatusCode::kUnknown:
    case StatusCode::kCancelled:
      return true;
    default:
      return false;
  }
}

bool is_retryable_with_degradation(StatusCode code) noexcept {
  return code == StatusCode::kResourceExhausted;
}

std::string Status::to_string() const {
  std::string out{tl::to_string(code_)};
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

namespace supervise {

Status classify_exception(std::exception_ptr error) {
  if (!error) return Status::ok();
  try {
    std::rethrow_exception(error);
  } catch (const io::SimulatedCrash&) {
    // A simulated process death is a harness event, not a task failure; it
    // must unwind all the way out exactly like a real SIGKILL would.
    throw;
  } catch (const CancelledError& e) {
    return Status{e.code(), e.what()};
  } catch (const io::IoError& e) {
    return Status{StatusCode::kUnavailable, e.what()};
  } catch (const TransientError& e) {
    return Status{StatusCode::kUnavailable, e.what()};
  } catch (const PermanentError& e) {
    return Status{StatusCode::kInternal, e.what()};
  } catch (const std::bad_alloc& e) {
    return Status{StatusCode::kResourceExhausted, e.what()};
  } catch (const std::length_error& e) {
    // length_error IS-A logic_error, but a container exceeding max_size is
    // an allocation failure, not a code bug: classify before logic_error so
    // it lands in the degraded-retry lane instead of the permanent one.
    return Status{StatusCode::kResourceExhausted, e.what()};
  } catch (const std::invalid_argument& e) {
    return Status{StatusCode::kInvalidArgument, e.what()};
  } catch (const std::logic_error& e) {
    return Status{StatusCode::kInternal, e.what()};
  } catch (const std::exception& e) {
    return Status{StatusCode::kUnknown, e.what()};
  } catch (...) {
    return Status{StatusCode::kUnknown, "non-std exception"};
  }
}

}  // namespace supervise
}  // namespace tl
