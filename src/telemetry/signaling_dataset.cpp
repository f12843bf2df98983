#include "telemetry/signaling_dataset.hpp"

namespace tl::telemetry {

std::vector<HandoverRecord> SignalingDataset::filter(
    const std::function<bool(const HandoverRecord&)>& predicate) const {
  std::vector<HandoverRecord> out;
  for (const auto& r : records_) {
    if (predicate(r)) out.push_back(r);
  }
  return out;
}

std::vector<double> SignalingDataset::success_durations_ms(
    topology::ObservedRat target) const {
  std::vector<double> out;
  for (const auto& r : records_) {
    if (r.success && r.target_rat == target) out.push_back(r.duration_ms);
  }
  return out;
}

std::uint64_t SignalingDataset::failure_count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& r : records_) n += r.success ? 0 : 1;
  return n;
}

}  // namespace tl::telemetry
