#pragma once

// Deterministic sharded fan-out / ordered merge.
//
// The engine's determinism contract: partition N independent items (UE-days
// of one study day) into contiguous shards of a fixed size, simulate shards
// concurrently on a ThreadPool in whatever order the scheduler likes, but
// MERGE the shard results on the caller's thread in ascending shard order —
// each merge starting as soon as its shard (and every earlier one) has
// finished. Since shards are contiguous index ranges, ascending-shard merge
// reproduces the serial item order exactly; everything order-sensitive
// (record sinks, the durable log, counter reduction) lives in the merge
// callback and therefore never observes scheduling.
//
// Bounded staging: a backpressure window keeps at most `window` shards
// admitted but unmerged, so a caller stages into slot_count() slots, shard s
// into slot s % slot_count(), however many shards the day has. The gate
// makes a slot exclusive: shard s + slot_count cannot start before shard s
// has merged.
//
// run() is the only code that schedules shard tasks. Unsupervised sharded
// simulator days call it directly; supervised days call it through
// supervise::StudySupervisor::run_day, which wraps the simulate callback in a
// per-shard retry/bisect/quarantine ladder — so every sharded day shares this
// geometry, gate and pipelined merge.
//
// Exceptions: a simulate callback that throws poisons its shard; run()
// opens the gate, waits for every in-flight shard, performs no further
// merges, and rethrows the poisoned exception that comes first in merge
// order — deterministic for deterministic failures. A shard admitted only
// because the gate was opened does not simulate at all: its slot may still
// belong to a shard that is running. Shards before the poisoned one may
// already have merged; the caller rolls back whatever they folded in
// (Simulator::run_day does). Merge callbacks run on the caller's thread, so
// their exceptions propagate directly (later shards are abandoned, their
// simulate results discarded with the slot state).

#include <cstddef>
#include <functional>
#include <memory>

#include "exec/thread_pool.hpp"

namespace tl::exec {

class ShardedDayRunner {
 public:
  struct Options {
    /// Worker threads; 0 = all hardware threads.
    unsigned threads = 0;
    /// Shard size: shard s covers items [s * items_per_shard,
    /// min((s + 1) * items_per_shard, N)), so the shard count follows the
    /// item count and a shard's staging stays the same size at any N. The
    /// runner cannot know what an item costs; callers pick a size whose work
    /// amortizes a shard's fixed cost (the simulator: 256 UE-days). 0 acts
    /// as 1.
    std::size_t items_per_shard = 1;
    /// Backpressure window: at most this many shards may be past the gate
    /// (simulating or simulated-but-unmerged) ahead of the merge floor,
    /// bounding staging to O(window) shards instead of O(all shards).
    /// 0 = auto: 2 x threads (one shard of slack per worker, so a finished
    /// worker starts its next shard while the merge catches up), clamped to
    /// threads when the global governor reports pressure. Throttling only
    /// delays when a shard *starts*; the ascending merge order — and
    /// therefore every output byte — is unchanged (proved at several
    /// windows by tests/test_govern.cpp).
    std::size_t max_live_shards = 0;
  };

  explicit ShardedDayRunner(Options options);

  unsigned thread_count() const noexcept { return pool_.size(); }

  /// Number of shards run() will use for `item_count` items:
  /// ceil(item_count / items_per_shard).
  std::size_t shard_count(std::size_t item_count) const noexcept;

  /// Staging slots run() over `item_count` items needs: the window at
  /// Steady pressure (never more than one slot per shard). Shard s stages
  /// into slot s % slot_count(item_count); no other shard enters that slot
  /// until s has merged, at every pressure level (a pressured window is
  /// smaller, never larger).
  std::size_t slot_count(std::size_t item_count) const noexcept;

  /// Shard callback: process items [first, last) of shard `shard`. Runs on
  /// a worker thread; must only touch its own slot's state (see
  /// slot_count).
  using SimulateFn =
      std::function<void(std::size_t shard, std::size_t first, std::size_t last)>;
  /// Merge callback: fold shard `shard` into global state. Runs on the
  /// calling thread, strictly in ascending shard order.
  using MergeFn = std::function<void(std::size_t shard)>;

  /// Fans `simulate` out over the pool and merges in order; returns after
  /// every shard is simulated and merged. No-op for item_count == 0.
  void run(std::size_t item_count, const SimulateFn& simulate, const MergeFn& merge);

 private:
  Options options_;
  ThreadPool pool_;

  /// Window before the clamp to the shard count: max_live_shards, or the
  /// auto window at the given pressure.
  std::size_t window(bool pressured) const noexcept;
  /// Effective gate window for a run over `shards` shards (0 = no gate: the
  /// window covers every shard).
  std::size_t gate_window(std::size_t shards) const;

  // Construction-captured obs handles (see ThreadPool for the rationale).
  obs::Counter shards_total_;
  obs::Counter throttle_waits_total_;
  obs::Histogram shard_sim_seconds_;
  obs::Histogram shard_merge_seconds_;
};

}  // namespace tl::exec
