#pragma once

// Deterministic sharded fan-out / ordered merge.
//
// The engine's determinism contract: partition N independent items (UE-days
// of one study day) into contiguous shards, simulate shards concurrently on
// a ThreadPool in whatever order the scheduler likes, but MERGE the shard
// results on the caller's thread in ascending shard order — each merge
// starting as soon as its shard (and every earlier one) has finished. Since
// shards are contiguous index ranges, ascending-shard merge reproduces the
// serial item order exactly; everything order-sensitive (record sinks, the
// durable log, counter reduction) lives in the merge callback and therefore
// never observes scheduling.
//
// run() is the only code that schedules shard tasks. Unsupervised sharded
// simulator days call it directly; supervised days call it through
// supervise::StudySupervisor::run_day, which wraps the simulate callback in a
// per-shard retry/bisect/quarantine ladder — so every sharded day shares this
// geometry, gate and pipelined merge.
//
// Exceptions: a simulate callback that throws poisons its shard; run()
// waits for every in-flight shard, performs no further merges, and rethrows
// the poisoned exception that comes first in merge order — deterministic
// for deterministic failures. Shards before it may already have merged; the
// caller rolls back whatever they folded in (Simulator::run_day does). Merge
// callbacks run on the caller's thread, so their exceptions propagate
// directly (later shards are abandoned, their simulate results discarded
// with the shard state).

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
    /// Shards per worker (> 1 lets finished workers steal ahead of a slow
    /// shard instead of idling at the merge barrier). Default 2: the old
    /// default of 4 oversharded small runs — 8 tiny shards at 2 threads,
    /// each re-paying per-shard setup (buffer growth, state reset) for a
    /// few milliseconds of simulation. Two per worker keeps one shard of
    /// slack for load balancing at a quarter of the fixed cost.
    unsigned shards_per_thread = 2;
    /// Floor on shard size: shard_count never splits finer than one shard
    /// per `min_items_per_shard` items (1 = no floor, the generic default —
    /// the runner cannot know what an item costs). Callers whose items are
    /// cheap (the simulator's UE-days) raise it so tiny populations do not
    /// fan out into shards whose fixed setup cost exceeds their work.
    std::size_t min_items_per_shard = 1;
    /// Backpressure window: at most this many shards may be past the gate
    /// (simulating or simulated-but-unmerged) ahead of the merge floor,
    /// bounding the buffered-records footprint to O(window) shards instead
    /// of O(all shards). 0 = auto: unbounded at Steady pressure, one
    /// window-per-worker clamp when the global governor reports pressure.
    /// Throttling only delays when a shard *starts*; the ascending merge
    /// order — and therefore every output byte — is unchanged (proved at
    /// several windows by tests/test_govern.cpp).
    std::size_t max_live_shards = 0;
  };

  ShardedDayRunner();  // default Options
  explicit ShardedDayRunner(Options options);

  unsigned thread_count() const noexcept { return pool_.size(); }

  /// Number of shards run() will use for `item_count` items: at most
  /// threads * shards_per_thread, never more than one shard per item.
  std::size_t shard_count(std::size_t item_count) const noexcept;

  /// Shard callback: process items [first, last) of shard `shard`. Runs on
  /// a worker thread; must only touch per-shard state.
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

  /// Effective gate window for a run over `shards` shards (0 = no gate).
  std::size_t gate_window(std::size_t shards) const;

  // Construction-captured obs handles (see ThreadPool for the rationale).
  obs::Counter shards_total_;
  obs::Counter throttle_waits_total_;
  obs::Histogram shard_sim_seconds_;
  obs::Histogram shard_merge_seconds_;
};

}  // namespace tl::exec
