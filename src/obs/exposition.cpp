#include "obs/exposition.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace tl::obs {
namespace {

/// Shortest round-trip-safe formatting: plain decimal or scientific, never
/// locale commas; NaN and infinities in Prometheus spelling.
std::string fmt(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  // Trim to the shortest representation that still round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char candidate[64];
    std::snprintf(candidate, sizeof candidate, "%.*g", precision, value);
    double parsed = 0.0;
    std::sscanf(candidate, "%lf", &parsed);
    if (parsed == value) return candidate;
  }
  return buf;
}

void write_help_type(std::ostream& os, const std::string& name,
                     const std::string& help, const char* type) {
  if (!help.empty()) os << "# HELP " << name << " " << help << "\n";
  os << "# TYPE " << name << " " << type << "\n";
}

}  // namespace

void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot) {
  for (const auto& c : snapshot.counters) {
    write_help_type(os, c.name, c.help, "counter");
    os << c.name << " " << c.value << "\n";
  }
  for (const auto& g : snapshot.gauges) {
    write_help_type(os, g.name, g.help, "gauge");
    os << g.name << " " << fmt(g.value) << "\n";
  }
  for (const auto& h : snapshot.histograms) {
    write_help_type(os, h.name, h.help, "histogram");
    // Prometheus buckets are cumulative and le-labelled; the sub-first-edge
    // underflow mass folds into every bucket, overflow only into +Inf.
    std::uint64_t cumulative = h.underflow;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      cumulative += h.counts[i];
      os << h.name << "_bucket{le=\"" << fmt(h.edges[i + 1]) << "\"} " << cumulative
         << "\n";
    }
    os << h.name << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    os << h.name << "_sum " << fmt(h.sum) << "\n";
    os << h.name << "_count " << h.count << "\n";
  }
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  write_prometheus(os, snapshot);
  return os.str();
}

}  // namespace tl::obs
