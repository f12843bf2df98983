#pragma once

// Streaming consumption of telemetry.
//
// The operator's pipeline cannot retain raw records at 1.7B HOs/day; ours
// streams each record through registered sinks and lets aggregators reduce
// online. Full retention (SignalingDataset) is itself just another sink.

#include <span>

#include "telemetry/records.hpp"

namespace tl::telemetry {

class RecordSink {
 public:
  virtual ~RecordSink() = default;
  virtual void consume(const HandoverRecord& record) = 0;
  /// Batch form: consume a contiguous run of records in order. The default
  /// forwards record-by-record, so every sink keeps working unchanged; hot
  /// sinks may override to amortize per-record dispatch. The parallel
  /// engine's ordered merge drains each shard buffer through one
  /// consume_span call per sink instead of records × sinks virtual calls —
  /// same records, same order, same bytes.
  virtual void consume_span(std::span<const HandoverRecord> records) {
    for (const auto& record : records) consume(record);
  }
  /// Called once per simulated day after all of the day's records.
  virtual void on_day_end(int day) { (void)day; }
};

class MetricsSink {
 public:
  virtual ~MetricsSink() = default;
  virtual void consume(const UeDayMetrics& metrics) = 0;
  /// Batch form, mirroring RecordSink::consume_span.
  virtual void consume_span(std::span<const UeDayMetrics> rows) {
    for (const auto& row : rows) consume(row);
  }
};

}  // namespace tl::telemetry
