#pragma once

// In-process task-level chaos: the seam that makes StudySupervisor itself
// testable. Two independent fault channels with very different determinism
// contracts:
//
//  * TASK faults (throws / transient I/O errors / hangs / slowdowns) are
//    keyed by (day, shard, attempt). They model scheduler accidents and
//    flaky infrastructure: retrying the same shard eventually succeeds
//    because max_faulty_attempts caps how many attempts in a row can fault.
//    Shard keys depend on the thread count, so these faults are allowed to
//    differ between runs — the retry loop absorbs them before they can
//    affect output bytes.
//
//  * POISON-UE faults are keyed by UE id only — day- and thread-independent.
//    They model genuinely pathological input: every attempt that simulates a
//    poison UE fails the same way, so bisection will isolate and quarantine
//    exactly the same UE set at any thread count, which is what the
//    byte-determinism property test leans on.

#include <cstdint>
#include <vector>

#include "supervise/cancellation.hpp"

namespace tl::supervise {

struct TaskFaultConfig {
  std::uint64_t seed = 0;

  // --- task channel (keyed by day/shard/attempt) ---
  double throw_rate = 0.0;     ///< PermanentError-looking std::runtime_error
  double io_error_rate = 0.0;  ///< io::IoError (retryable)
  double hang_rate = 0.0;      ///< cooperative hang until cancelled
  double slow_rate = 0.0;      ///< sleep slow_ms, then proceed normally
  std::uint64_t slow_ms = 5;
  /// A (day, shard) pair faults on at most this many consecutive attempts;
  /// keep <= the supervisor's retry.max_retries so task faults always converge.
  int max_faulty_attempts = 3;
  /// Safety net: an injected hang gives up after this long even if nobody
  /// cancels it, so an unsupervised run cannot deadlock.
  std::uint64_t hang_cap_ms = 2'000;

  // --- poison channel (keyed by UE id only) ---
  double poison_ue_fraction = 0.0;  ///< fraction of UEs that always throw
  double poison_hang_fraction = 0.0;  ///< of the poison UEs, fraction that hang instead
  std::vector<std::uint32_t> poison_ues;  ///< explicit poison ids (additive)
};

enum class TaskFault : std::uint8_t { kNone, kThrow, kIoError, kHang, kSlow };

/// Thread-safe after construction: all decisions are pure functions of the
/// seed and the keys, no mutable state.
class TaskFaultInjector {
 public:
  explicit TaskFaultInjector(TaskFaultConfig config);

  const TaskFaultConfig& config() const noexcept { return config_; }

  /// Pure decision function, exposed so tests can assert determinism.
  TaskFault decide_task(int day, std::size_t shard, int attempt) const;

  /// Invoked by StudySupervisor at the top of a shard attempt. Throws /
  /// hangs / sleeps per decide_task. `token` may be null: hangs then rely
  /// on hang_cap_ms.
  void on_task_begin(int day, std::size_t shard, int attempt,
                     const CancelToken* token) const;

  /// True iff this UE is poisoned (either sampled or explicit).
  bool is_poison(std::uint32_t ue) const;

  /// Invoked per UE inside the simulate loop. Poison UEs throw
  /// PermanentError (or cooperatively hang, for the hang subset).
  void on_ue(std::uint32_t ue, const CancelToken* token) const;

  /// All poison ids below `universe`, ascending — the oracle a determinism
  /// test compares the quarantine report against.
  std::vector<std::uint32_t> poison_set(std::uint32_t universe) const;

 private:
  void hang(const CancelToken* token) const;

  TaskFaultConfig config_;
};

}  // namespace tl::supervise
