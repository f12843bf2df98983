#pragma once

// Append-only metrics capture. telemetry::UeDayStore keeps one row per
// (UE, day) in (day, UE) order, so a UE-day emitted twice or out of order
// leaves no trace in it; this sink keeps every row as it arrives, for the
// tests that check each UE-day is emitted exactly once and in order.

#include <vector>

#include "telemetry/sinks.hpp"

namespace tl::testing {

class MetricsLog final : public telemetry::MetricsSink {
 public:
  void consume(const telemetry::UeDayMetrics& metrics) override { rows_.push_back(metrics); }
  const std::vector<telemetry::UeDayMetrics>& rows() const noexcept { return rows_; }

 private:
  std::vector<telemetry::UeDayMetrics> rows_;
};

}  // namespace tl::testing
