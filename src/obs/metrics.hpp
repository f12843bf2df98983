#pragma once

// Runtime observability for the measurement system itself.
//
// The pipeline this repo models is an always-on operator-side system
// (~8 TB/day of signaling); a multi-week study run needs the same continuous
// internal telemetry — shard latency, retry pressure, WAL throughput,
// quarantine churn — that the network under study gets. This module is the
// substrate: a MetricsRegistry of counters, gauges, and fixed-bucket latency
// histograms, built for a hot path that is allowed to cost almost nothing.
//
// Design constraints, in order:
//  1. No hot-path locks. Every counter/histogram is sharded into
//     cache-line-padded cells; a writer touches only its own thread's cell
//     with a relaxed atomic add, and scrape() merges the shards. Gauges are
//     a single relaxed atomic (last-writer-wins set, CAS add).
//  2. Observational only. Metrics never touch RNG state, record streams, or
//     WAL bytes — the existing CRC determinism gates (test_exec, test_obs,
//     bench_throughput) hold with metrics on or off at any thread count.
//  3. Optional everywhere. Handles are null-safe no-ops when no registry is
//     installed, and a registry can be disabled wholesale (one relaxed load
//     per operation) so the overhead bench can compare on/off on one world.
//
// Instrumented components resolve their handles from the process-global
// registry (set_global_registry) through obs::counter/gauge/histogram, which
// hand out no-op handles while none is installed. Short-lived components
// (ThreadPool, ShardedDayRunner) capture at construction; long-lived ones
// (Simulator, RecordLog, StudySupervisor) re-resolve when the global epoch
// changes, so installing a registry between runs of a shared world "just
// works".
//
// Histogram binning deliberately reuses analysis::Histogram as the edge
// oracle: its validated constructor (monotone edges, >= 2 of them) and
// NaN-safe bin_index are exactly the guarantees a latency histogram needs.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/histogram.hpp"

namespace tl::obs {

/// One scrape of one metric family; MetricsSnapshot aggregates them. All
/// vectors are sorted by name so exposition output is deterministic.
struct CounterSnapshot {
  std::string name;
  std::string help;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::string help;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  std::string help;
  std::vector<double> edges;           ///< bins+1 ascending bucket edges
  std::vector<std::uint64_t> counts;   ///< per-bin observation counts
  std::uint64_t underflow = 0;         ///< observations below edges.front()
  std::uint64_t overflow = 0;          ///< observations at/above edges.back()
  std::uint64_t nan = 0;               ///< NaN observations (dropped from sum)
  std::uint64_t count = 0;             ///< all finite observations
  double sum = 0.0;                    ///< sum of all finite observations

  /// Smallest edge e with cumulative_count(e)/count >= q; edges.back() when
  /// the mass sits in the overflow bucket. A bucketed quantile readout.
  double quantile(double q) const;
};

struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  const CounterSnapshot* find_counter(const std::string& name) const noexcept;
  const GaugeSnapshot* find_gauge(const std::string& name) const noexcept;
  const HistogramSnapshot* find_histogram(const std::string& name) const noexcept;
};

namespace detail {

/// Hot-path cells are cache-line padded so two threads bumping different
/// shards of the same counter never share a line.
struct alignas(64) Cell {
  std::atomic<std::uint64_t> value{0};
};

/// Writer shards. Each thread is pinned (thread_local, round-robin) to one
/// shard index for its lifetime; collisions just share a relaxed atomic.
inline constexpr std::size_t kShards = 16;

std::size_t shard_index() noexcept;

/// add for atomic<double> via CAS (portable; the cell is per-thread-shard,
/// so the loop virtually never retries).
void atomic_add(std::atomic<double>& target, double delta) noexcept;

struct CounterFamily {
  std::string name;
  std::string help;
  Cell cells[kShards];
};

struct GaugeFamily {
  std::string name;
  std::string help;
  std::atomic<double> value{0.0};
};

struct HistogramFamily {
  HistogramFamily(std::string name, std::string help, analysis::Histogram bins);
  std::string name;
  std::string help;
  analysis::Histogram bins;  ///< const after construction: the edge oracle
  struct alignas(64) Shard {
    std::vector<std::atomic<std::uint64_t>> buckets;  // bins + under/over/nan
    std::atomic<double> sum{0.0};
  };
  Shard shards[kShards];
};

}  // namespace detail

class MetricsRegistry;

/// Monotone counter handle. Trivially copyable; default-constructed (or
/// resolved without a registry) handles are no-ops. `live()` lets callers
/// skip expensive measurement (clock reads) when nobody is listening.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) const noexcept {
    if (live()) family_->cells[detail::shard_index()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  bool live() const noexcept {
    return family_ != nullptr && enabled_->load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Counter(detail::CounterFamily* family, const std::atomic<bool>* enabled)
      : family_(family), enabled_(enabled) {}
  detail::CounterFamily* family_ = nullptr;
  const std::atomic<bool>* enabled_ = nullptr;
};

/// Point-in-time gauge handle (queue depth, quarantine size, ...).
class Gauge {
 public:
  Gauge() = default;
  void set(double value) const noexcept {
    if (live()) family_->value.store(value, std::memory_order_relaxed);
  }
  void add(double delta) const noexcept {
    if (live()) detail::atomic_add(family_->value, delta);
  }
  bool live() const noexcept {
    return family_ != nullptr && enabled_->load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Gauge(detail::GaugeFamily* family, const std::atomic<bool>* enabled)
      : family_(family), enabled_(enabled) {}
  detail::GaugeFamily* family_ = nullptr;
  const std::atomic<bool>* enabled_ = nullptr;
};

/// Fixed-bucket histogram handle; observations are in seconds by convention
/// for *_seconds metrics, but the type is unit-agnostic.
class Histogram {
 public:
  Histogram() = default;
  void observe(double value) const noexcept;
  bool live() const noexcept {
    return family_ != nullptr && enabled_->load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Histogram(detail::HistogramFamily* family, const std::atomic<bool>* enabled)
      : family_(family), enabled_(enabled) {}
  detail::HistogramFamily* family_ = nullptr;
  const std::atomic<bool>* enabled_ = nullptr;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registration is idempotent by name (the existing family is returned);
  /// a name registered as a different metric kind throws std::logic_error.
  /// Registration takes a mutex — do it at component setup, not per event.
  Counter counter(const std::string& name, const std::string& help = "");
  Gauge gauge(const std::string& name, const std::string& help = "");
  /// `edges` must satisfy analysis::Histogram's contract (>= 2 strictly
  /// increasing finite edges) — std::invalid_argument otherwise.
  Histogram histogram(const std::string& name, std::vector<double> edges,
                      const std::string& help = "");

  /// Default latency buckets: 16 exponential edges, 100 us .. 100 s.
  static std::vector<double> latency_edges_s();
  /// `count`+1 edges from lo, multiplying by factor: lo, lo*f, lo*f^2, ...
  static std::vector<double> exponential_edges(double lo, double factor,
                                               std::size_t count);

  /// Merges every shard of every family into one consistent-enough snapshot
  /// (concurrent writers may land between cells; each cell is exact).
  MetricsSnapshot scrape() const;

  /// Disabled registries keep their families but drop every operation (one
  /// relaxed load per op) — the "metrics-off" arm of the overhead bench.
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  mutable std::mutex mutex_;
  std::atomic<bool> enabled_{true};
  // deques: family addresses must survive later registrations (handles hold
  // raw pointers into them).
  std::deque<detail::CounterFamily> counters_;
  std::deque<detail::GaugeFamily> gauges_;
  std::deque<std::unique_ptr<detail::HistogramFamily>> histograms_;
  std::vector<std::pair<std::string, Kind>> names_;
};

/// Process-global registry (borrowed; null = observability off). Installing
/// a different pointer bumps the epoch so long-lived components know to
/// re-resolve their handles. The registry must outlive every component that
/// resolved handles from it.
MetricsRegistry* global_registry() noexcept;
void set_global_registry(MetricsRegistry* registry) noexcept;
std::uint64_t global_epoch() noexcept;

/// Handles from the global registry: registered there (same contract as the
/// MetricsRegistry methods), or no-op handles when none is installed.
/// Long-lived components call these again whenever global_epoch() moves.
Counter counter(const std::string& name, const std::string& help = "");
Gauge gauge(const std::string& name, const std::string& help = "");
Histogram histogram(const std::string& name, std::vector<double> edges,
                    const std::string& help = "");

/// RAII install/restore, for tests and benches.
class ScopedGlobalRegistry {
 public:
  explicit ScopedGlobalRegistry(MetricsRegistry* registry)
      : previous_(global_registry()) {
    set_global_registry(registry);
  }
  ~ScopedGlobalRegistry() { set_global_registry(previous_); }
  ScopedGlobalRegistry(const ScopedGlobalRegistry&) = delete;
  ScopedGlobalRegistry& operator=(const ScopedGlobalRegistry&) = delete;

 private:
  MetricsRegistry* previous_;
};

}  // namespace tl::obs
