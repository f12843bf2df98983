#include "exec/sharded_runner.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <future>
#include <mutex>
#include <vector>

#include "govern/governor.hpp"
#include "obs/scoped_timer.hpp"

namespace tl::exec {

ShardedDayRunner::ShardedDayRunner(Options options)
    : options_(options), pool_(options.threads) {
  if (options_.items_per_shard == 0) options_.items_per_shard = 1;
  shards_total_ = obs::counter("tl_exec_shards_simulated_total",
                               "Shards simulated by the day runner");
  throttle_waits_total_ =
      obs::counter("tl_govern_backpressure_waits_total",
                   "Shard starts delayed by the backpressure gate");
  shard_sim_seconds_ =
      obs::histogram("tl_exec_shard_sim_seconds",
                     obs::MetricsRegistry::latency_edges_s(),
                     "Worker-side simulate time per shard");
  shard_merge_seconds_ =
      obs::histogram("tl_exec_shard_merge_seconds",
                     obs::MetricsRegistry::latency_edges_s(),
                     "Caller-side ordered merge time per shard");
}

std::size_t ShardedDayRunner::shard_count(std::size_t item_count) const noexcept {
  // Contiguous ranges merge in ascending order whatever their size, so the
  // shard size is a pure scheduling knob: output bytes are invariant under it.
  return (item_count + options_.items_per_shard - 1) / options_.items_per_shard;
}

std::size_t ShardedDayRunner::window(bool pressured) const noexcept {
  if (options_.max_live_shards != 0) return options_.max_live_shards;
  const std::size_t workers = pool_.size();
  return pressured ? workers : 2 * workers;
}

std::size_t ShardedDayRunner::slot_count(std::size_t item_count) const noexcept {
  return std::min(shard_count(item_count), window(/*pressured=*/false));
}

std::size_t ShardedDayRunner::gate_window(std::size_t shards) const {
  // Under pressure the auto window holds the staging footprint to about one
  // in-flight shard per worker. The window never affects output bytes (merge
  // order is fixed), so reading the hysteretic level here is safe even
  // though it can differ between runs.
  govern::MemoryBudget* governor = govern::global_governor();
  const bool pressured = governor != nullptr &&
                         governor->level() != govern::PressureLevel::kSteady;
  const std::size_t w = window(pressured);
  return w >= shards ? 0 : w;
}

void ShardedDayRunner::run(std::size_t item_count, const SimulateFn& simulate,
                           const MergeFn& merge) {
  if (item_count == 0) return;
  const std::size_t shards = shard_count(item_count);
  // Bounded hand-off: shard s may not start simulating until fewer than
  // `window` shards sit between it and the merge floor, which is also what
  // keeps each staging slot (s % slot_count) exclusive. Tasks are submitted
  // in ascending shard order to a FIFO pool and merged in ascending order,
  // so the gate can only delay starts, never reorder anything — see
  // BackpressureGate for the deadlock-freedom argument. Every early exit
  // below must open() the gate before waiting on worker futures.
  govern::BackpressureGate gate{gate_window(shards)};

  struct ShardState {
    bool done = false;
    std::exception_ptr error;
  };
  std::vector<ShardState> states(shards);
  std::mutex mutex;
  std::condition_variable shard_done;

  // Every task references the locals above, so run() may not unwind until
  // each submitted task has finished — including on the error paths below.
  // The futures are waited too (not just the done flags): the pool wraps
  // each task with its own instrumentation, and the future is set strictly
  // after those trailing writes, so a caller tearing down the metrics
  // registry right after run() cannot race them.
  std::size_t submitted = 0;
  std::vector<std::future<void>> futures;
  futures.reserve(shards);
  const auto wait_for_submitted = [&] {
    std::unique_lock<std::mutex> lock{mutex};
    for (std::size_t shard = 0; shard < submitted; ++shard) {
      shard_done.wait(lock, [&] { return states[shard].done; });
    }
  };
  const auto wait_for_futures = [&] {
    for (auto& future : futures) {
      if (future.valid()) future.wait();
    }
  };

  try {
    for (std::size_t shard = 0; shard < shards; ++shard) {
      const std::size_t first = shard * options_.items_per_shard;
      const std::size_t last = std::min(item_count, first + options_.items_per_shard);
      futures.push_back(pool_.submit([this, &states, &mutex, &shard_done, &simulate,
                                      &gate, shard, first, last] {
        std::exception_ptr error;
        // A shard the gate lets through only because run() opened it on an
        // error path skips its work: the day is already lost, and its slot
        // may still belong to the shard slot_count() places before it.
        if (gate.acquire(shard)) {
          obs::ScopedTimer span{shard_sim_seconds_};
          try {
            simulate(shard, first, last);
            span.stop();
            shards_total_.inc();
          } catch (...) {
            span.cancel();  // failed shards must not skew the latency profile
            error = std::current_exception();
          }
        }
        // Notify while holding the lock: the caller destroys `shard_done`
        // (it lives on run()'s stack) as soon as its predicate turns true,
        // and a waiter can only re-check the predicate after this unlock —
        // so an outside-the-lock notify could touch a destroyed cv.
        std::lock_guard<std::mutex> lock{mutex};
        states[shard].error = error;
        states[shard].done = true;
        shard_done.notify_all();
      }));
      ++submitted;
    }
  } catch (...) {
    gate.open();
    wait_for_submitted();
    wait_for_futures();
    throw;
  }

  // Pipelined ordered merge: shard k merges the moment shards 0..k have all
  // finished simulating, while later shards are still running. On error,
  // stop merging but keep waiting — the workers still hold our stack.
  std::exception_ptr first_error;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    {
      std::unique_lock<std::mutex> lock{mutex};
      shard_done.wait(lock, [&] { return states[shard].done; });
      if (states[shard].error != nullptr && first_error == nullptr) {
        first_error = states[shard].error;
      }
    }
    if (first_error != nullptr) {
      gate.open();  // no more merges will retire slots; unblock the workers
      continue;
    }
    try {
      obs::ScopedTimer span{shard_merge_seconds_};
      merge(shard);
    } catch (...) {
      first_error = std::current_exception();
      gate.open();
    }
    gate.release();
  }
  wait_for_futures();
  throttle_waits_total_.inc(gate.waits());
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace tl::exec
