#pragma once

// Process-wide resource governance: memory budgets, pressure levels,
// backpressure, and seeded pressure injection.
//
// The operator-side pipeline this repo models (~8 TB/day of signaling) does
// not fail by crashing; it fails by *filling up*. The chaos work so far
// proves the system survives faults (kill/recover, EIO, torn writes) — this
// module is the overload counterpart: it turns memory pressure from an OOM
// kill into a deterministic, observable, certified-accuracy event.
//
// Pieces, and the determinism argument for each:
//
//  - MemoryBudget: a byte-accounted budget. Hot allocators (per-shard
//    RecordBuffers, the WAL writer's staging, serve aggregates) register named
//    Accountants and report capacity deltas with relaxed atomics — the hot
//    path never locks. Pressure is read at control-plane boundaries as a
//    hysteretic level (Steady -> Elevated -> Critical): upgrades happen at
//    the threshold, downgrades only below threshold-minus-hysteresis, so a
//    usage hovering at a boundary cannot flap the level (and therefore
//    cannot flap any decision keyed on it).
//  - BackpressureGate: bounded hand-off between producing shards and the
//    ordered merge consumer. Producers of shard s block until
//    s < merged_floor + window; the consumer releases one slot per merged
//    shard. Because shards are submitted in ascending order to a FIFO pool
//    and the merge is already ascending, a window >= 1 can never deadlock,
//    and throttling changes *when* a shard runs but never the merge order —
//    throttled output is byte-identical to unthrottled at any thread count.
//  - PressurePlan: the pressure-injection seam, in the IoFaultPlan idiom.
//    A seeded schedule of budget clamps keyed to a deterministic tick
//    (serve mode ticks once per sealed day), so the same (seed, plan)
//    reproduces the same pressure history — and after a crash, restoring
//    the tick from recovered state replays the remainder identically.
//  - Degradation bookkeeping: allocation failures escalate straight to
//    Critical for a hold period (record_allocation_failure), which is what
//    lets the supervisor grant one degraded retry instead of thrashing.
//
// Like obs::MetricsRegistry, a process-global governor can be installed
// (set_global_governor bumps an epoch); components resolve Accountants at
// construction or at single-threaded boundaries. Everything is null-safe:
// with no governor installed, accounting is a no-op and pressure is Steady.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace tl::govern {

enum class PressureLevel : std::uint8_t {
  kSteady = 0,    ///< comfortably under budget
  kElevated = 1,  ///< above kElevatedFraction: shed optional detail
  kCritical = 2,  ///< above kCriticalFraction (or a real allocation failure)
};

const char* to_string(PressureLevel level) noexcept;

class MemoryBudget;

/// Byte-accounting handle into one named slot of a MemoryBudget. Trivially
/// copyable and null-safe: a default-constructed (or governor-less) handle
/// drops every operation. add/sub are relaxed atomics — safe from worker
/// threads. Callers track their own accounted total and report deltas; the
/// slot outlives the handle (deque storage, like obs families).
class Accountant {
 public:
  Accountant() = default;

  void add(std::uint64_t bytes) const noexcept;
  void sub(std::uint64_t bytes) const noexcept;
  bool live() const noexcept { return slot_ != nullptr; }
  /// Current bytes in this slot (all holders of the name combined).
  std::uint64_t bytes() const noexcept;

 private:
  friend class MemoryBudget;
  struct Slot;
  explicit Accountant(Slot* slot) : slot_(slot) {}
  Slot* slot_ = nullptr;
};

/// One scheduled budget clamp: from `tick` onward the effective budget is
/// `budget_bytes` (until a later clamp supersedes it). Ticks are advanced
/// by the component that owns the clock — serve mode ticks per sealed day —
/// so a plan replays identically across runs and restarts.
struct BudgetClamp {
  std::uint64_t tick = 0;
  std::uint64_t budget_bytes = 0;
};

/// Deterministic pressure-injection schedule, mirroring io::IoFaultPlan.
class PressurePlan {
 public:
  PressurePlan() = default;

  /// Clamps must be added in ascending tick order (asserted at set_plan).
  void add(std::uint64_t tick, std::uint64_t budget_bytes) {
    clamps_.push_back({tick, budget_bytes});
  }

  /// Seeded chaos plan: at each tick in [1, horizon_ticks], with probability
  /// `clamp_rate`, the budget is re-drawn uniformly in [floor_bytes,
  /// base_bytes] (occasionally restored to base). Same seed, same plan.
  static PressurePlan chaos(std::uint64_t seed, std::uint64_t horizon_ticks,
                            std::uint64_t base_bytes, std::uint64_t floor_bytes,
                            double clamp_rate = 0.35);

  /// The clamp in force at `tick` (largest scheduled tick <= tick), or
  /// nullptr when none has taken effect yet.
  const BudgetClamp* at(std::uint64_t tick) const noexcept;

  bool empty() const noexcept { return clamps_.empty(); }
  const std::vector<BudgetClamp>& clamps() const noexcept { return clamps_; }

 private:
  std::vector<BudgetClamp> clamps_;
};

/// The governor proper. Accountant traffic is lock-free; everything else
/// (level(), tick(), set_plan(), snapshot()) takes a small mutex and is
/// meant for control-plane call sites (day boundaries, run setup), not
/// per-record paths.
class MemoryBudget {
 public:
  struct Options {
    /// Total byte budget; 0 = unlimited (accounting only, always Steady).
    std::uint64_t budget_bytes = 0;
  };

  /// Level thresholds as fractions of the effective budget.
  static constexpr double kElevatedFraction = 0.70;
  static constexpr double kCriticalFraction = 0.90;
  /// Downgrade hysteresis: a level is left only when usage drops below
  /// threshold - kHysteresisFraction * budget.
  static constexpr double kHysteresisFraction = 0.05;
  /// Ticks a real allocation failure pins the level at Critical.
  static constexpr std::uint64_t kAllocFailureHoldTicks = 2;

  MemoryBudget() : MemoryBudget(Options{}) {}
  explicit MemoryBudget(Options options) : options_(options) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Returns the accountant for `name`, creating the slot on first use.
  /// Idempotent by name: every caller of the same name shares one slot.
  Accountant accountant(const std::string& name);

  /// Total accounted bytes right now / high-water mark since construction.
  std::uint64_t used_bytes() const noexcept;
  std::uint64_t peak_bytes() const noexcept;

  /// Effective budget: Options::budget_bytes, overridden by the pressure
  /// plan's clamp in force at the current tick.
  std::uint64_t budget_bytes() const;

  /// Hysteretic pressure level (see file comment); also refreshes the
  /// tl_govern_* gauges. Deterministic given the same sequence of
  /// (used_bytes, budget, tick) observations.
  PressureLevel level();

  /// Installs the injection schedule (clamps must be tick-ascending;
  /// std::invalid_argument otherwise) and re-applies it at the current tick.
  void set_plan(PressurePlan plan);

  /// Advances the injection clock one tick.
  void tick();
  /// Restores the clock after a restart (e.g. to the recovered days_sealed
  /// count) so a plan's remainder replays exactly. Resets any
  /// allocation-failure hold — that state is process-local and died with
  /// the process.
  void set_tick(std::uint64_t tick);
  std::uint64_t ticks() const;

  /// Seeds the hysteresis memory after a restart, from recovered state
  /// (e.g. the degradation level a serve checkpoint carried), so the first
  /// post-restart decision sees the same previous level an uninterrupted
  /// run would have.
  void set_level(PressureLevel level);

  /// A real allocation failure (bad_alloc): pin Critical for
  /// kAllocFailureHoldTicks ticks so a degraded retry runs with maximum
  /// shedding instead of re-failing. Thread-safe.
  void record_allocation_failure();
  std::uint64_t allocation_failures() const noexcept;

  struct AccountSnapshot {
    std::string name;
    std::uint64_t bytes = 0;
  };
  struct Snapshot {
    std::uint64_t used_bytes = 0;
    std::uint64_t peak_bytes = 0;
    std::uint64_t budget_bytes = 0;
    PressureLevel level = PressureLevel::kSteady;
    std::uint64_t ticks = 0;
    std::uint64_t allocation_failures = 0;
    std::vector<AccountSnapshot> accounts;  ///< name-sorted
  };
  Snapshot snapshot();

 private:
  friend class Accountant;  // lock-free used_/peak_ updates

  PressureLevel level_locked();
  void resolve_obs_locked();

  Options options_;
  mutable std::mutex mutex_;
  std::deque<Accountant::Slot> slots_;  // stable addresses, like obs families
  std::atomic<std::uint64_t> used_{0};
  std::atomic<std::uint64_t> peak_{0};
  std::atomic<std::uint64_t> alloc_failures_{0};
  PressurePlan plan_;
  std::uint64_t ticks_ = 0;
  std::uint64_t alloc_hold_until_ = 0;  ///< tick until which Critical is pinned
  PressureLevel last_level_ = PressureLevel::kSteady;

  std::uint64_t obs_epoch_ = UINT64_MAX;
  obs::Gauge obs_used_;
  obs::Gauge obs_budget_;
  obs::Gauge obs_level_;
  obs::Counter obs_level_changes_;
  obs::Counter obs_alloc_failures_;
};

struct Accountant::Slot {
  std::string name;
  std::atomic<std::uint64_t> bytes{0};
  MemoryBudget* owner = nullptr;
};

/// Process-global governor (borrowed; null = governance off). Installing a
/// different pointer bumps the epoch so long-lived components re-resolve
/// their accountants at single-threaded boundaries — the obs registry
/// contract. The governor must outlive every component that resolved
/// accountants from it.
MemoryBudget* global_governor() noexcept;
void set_global_governor(MemoryBudget* governor) noexcept;
std::uint64_t global_epoch() noexcept;

/// Accountant for `name` from the global governor; null-safe no-op handle
/// when none is installed.
Accountant account(const std::string& name);

/// RAII install/restore, for tests, benches, and drills.
class ScopedGlobalGovernor {
 public:
  explicit ScopedGlobalGovernor(MemoryBudget* governor)
      : previous_(global_governor()) {
    set_global_governor(governor);
  }
  ~ScopedGlobalGovernor() { set_global_governor(previous_); }
  ScopedGlobalGovernor(const ScopedGlobalGovernor&) = delete;
  ScopedGlobalGovernor& operator=(const ScopedGlobalGovernor&) = delete;

 private:
  MemoryBudget* previous_;
};

/// Bounded hand-off between producers emitting work units 0..N-1 and a
/// consumer that retires them in ascending order. acquire(s) blocks until
/// s < retired + window; release() retires one unit. window 0 = unbounded
/// (every acquire returns true immediately). open() permanently unblocks all
/// waiters — the consumer's error path must call it (or release every
/// unit) before the producers' futures are waited, or they deadlock. With a
/// window, acquire() returns false once the gate is open: the consumer has
/// given up, and a unit admitted that way is not exclusive with unit
/// s - window, so the producer must skip its work.
///
/// Deadlock-freedom for window >= 1, producers started in ascending-unit
/// order on a FIFO pool: at any time let f be the retired floor; unit f is
/// either finished (the consumer can retire it) or admitted (f < f+window),
/// and every worker blocked in acquire holds no lock the consumer needs —
/// so the floor always advances. Progress is induction on f.
class BackpressureGate {
 public:
  explicit BackpressureGate(std::size_t window);

  bool acquire(std::size_t unit);
  void release();
  void open();

  std::size_t window() const noexcept { return window_; }
  /// Times acquire() actually blocked (not just checked) — the throttle
  /// signal the tests and obs counters read.
  std::uint64_t waits() const noexcept {
    return waits_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t window_;
  mutable std::mutex mutex_;
  std::condition_variable admitted_;
  std::size_t retired_ = 0;
  bool open_ = false;
  std::atomic<std::uint64_t> waits_{0};
};

}  // namespace tl::govern
