#pragma once

// StudyMonitor: the operator-facing view of a running study.
//
// A registry is a bag of raw families; the monitor turns successive scrapes
// into the numbers a NOC dashboard wants — interval throughput (UE-days/sec,
// records/sec since the previous snapshot), cumulative totals, and the
// headline health indicators (retry pressure, quarantine size, WAL volume).
// It also fronts the exposition writer so callers can dump metrics.prom
// without touching the registry directly.
//
// Scrape cadence is the caller's: per day, per N seconds from a sidecar
// thread, or once at the end of a run. snapshot() is thread-safe against
// concurrent writers (they use relaxed atomics), and monitors never block
// the hot path.

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"

namespace tl::obs {

class StudyMonitor {
 public:
  struct Snapshot {
    MetricsSnapshot metrics;
    double uptime_s = 0.0;    ///< since the monitor was constructed
    double interval_s = 0.0;  ///< since the previous snapshot (construction
                              ///< for the first), the window the rates cover
    // Interval rates, derived from tl_sim_* counter deltas.
    double ue_days_per_sec = 0.0;
    double records_per_sec = 0.0;
    // Cumulative totals (0 when the corresponding family does not exist).
    std::uint64_t days = 0;
    std::uint64_t ue_days = 0;
    std::uint64_t records = 0;
    std::uint64_t retries = 0;
    std::uint64_t wal_bytes = 0;
    double quarantine_size = 0.0;
  };

  /// `registry` is borrowed and must outlive the monitor.
  explicit StudyMonitor(MetricsRegistry& registry);

  Snapshot snapshot();

  /// Scrapes and writes the Prometheus text exposition to `path`.
  /// Throws std::runtime_error when the file cannot be written.
  void write_prometheus_file(const std::string& path);

  MetricsRegistry& registry() noexcept { return registry_; }

 private:
  MetricsRegistry& registry_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_scrape_;
  std::uint64_t last_ue_days_ = 0;
  std::uint64_t last_records_ = 0;
};

}  // namespace tl::obs
