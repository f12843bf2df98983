#include "obs/study_monitor.hpp"

#include <stdexcept>

#include "io/file.hpp"
#include "obs/exposition.hpp"

namespace tl::obs {

StudyMonitor::StudyMonitor(MetricsRegistry& registry)
    : registry_(registry),
      start_(std::chrono::steady_clock::now()),
      last_scrape_(start_) {}

StudyMonitor::Snapshot StudyMonitor::snapshot() {
  Snapshot snap;
  snap.metrics = registry_.scrape();
  const auto now = std::chrono::steady_clock::now();
  snap.uptime_s = std::chrono::duration<double>(now - start_).count();

  const auto counter = [&](const char* name) -> std::uint64_t {
    const CounterSnapshot* c = snap.metrics.find_counter(name);
    return c != nullptr ? c->value : 0;
  };
  snap.days = counter("tl_sim_days_total");
  snap.ue_days = counter("tl_sim_ue_days_total");
  snap.records = counter("tl_sim_records_total");
  snap.retries = counter("tl_supervise_retries_total");
  snap.wal_bytes = counter("tl_wal_bytes_total");
  if (const GaugeSnapshot* g =
          snap.metrics.find_gauge("tl_supervise_quarantine_size")) {
    snap.quarantine_size = g->value;
  }

  // The first interval spans from construction (last_scrape_ = start_), so a
  // single end-of-run snapshot still yields whole-run rates.
  snap.interval_s = std::chrono::duration<double>(now - last_scrape_).count();
  if (snap.interval_s > 0.0) {
    snap.ue_days_per_sec =
        static_cast<double>(snap.ue_days - last_ue_days_) / snap.interval_s;
    snap.records_per_sec =
        static_cast<double>(snap.records - last_records_) / snap.interval_s;
  }
  last_scrape_ = now;
  last_ue_days_ = snap.ue_days;
  last_records_ = snap.records;
  return snap;
}

namespace {
// Atomic publish: scrape files are read by external collectors, which must
// never observe a half-written dump; a crash leaves either the old file or
// the new one.
void write_file(const std::string& path, const std::string& body) {
  try {
    io::write_file_atomic(
        io::StdioFileSystem::instance(), path,
        {reinterpret_cast<const std::uint8_t*>(body.data()), body.size()});
  } catch (const io::IoError& error) {
    throw std::runtime_error{"StudyMonitor: could not write " + path + ": " +
                             error.what()};
  }
}
}  // namespace

void StudyMonitor::write_prometheus_file(const std::string& path) {
  write_file(path, to_prometheus(registry_.scrape()));
}

}  // namespace tl::obs
