#pragma once

// Exposition writer: serializes a MetricsSnapshot in the Prometheus text
// format (v0.0.4) for scraping. Counters end in _total, histograms expand to
// cumulative _bucket{le=...} series plus _sum/_count, gauges are plain
// samples. `network_ops_report --metrics-out metrics.prom` writes this so a
// textfile-collector (or curl | promtool) can ingest a running study's
// internals.
//
// Metrics are written in name order (MetricsSnapshot is sorted), so output
// is byte-stable for a given snapshot.

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"

namespace tl::obs {

void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot);
std::string to_prometheus(const MetricsSnapshot& snapshot);

}  // namespace tl::obs
