#pragma once

// Full-retention signaling dataset: stores every record (small scales,
// tests) and offers the filtered views the analyses start from.

#include <functional>
#include <span>
#include <vector>

#include "telemetry/sinks.hpp"

namespace tl::telemetry {

class SignalingDataset : public RecordSink {
 public:
  void consume(const HandoverRecord& record) override { records_.push_back(record); }

  std::span<const HandoverRecord> records() const noexcept { return records_; }
  std::size_t size() const noexcept { return records_.size(); }
  void reserve(std::size_t n) { records_.reserve(n); }
  void clear() noexcept { records_.clear(); }

  /// Records matching a predicate.
  std::vector<HandoverRecord> filter(
      const std::function<bool(const HandoverRecord&)>& predicate) const;

  /// Success-only durations toward a target RAT class (Fig. 8 input).
  std::vector<double> success_durations_ms(topology::ObservedRat target) const;

  std::uint64_t failure_count() const noexcept;

 private:
  std::vector<HandoverRecord> records_;
};

}  // namespace tl::telemetry
