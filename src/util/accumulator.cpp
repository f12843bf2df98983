#include "util/accumulator.hpp"

#include <algorithm>
#include <stdexcept>

namespace tl::util {

void Accumulator::merge(const Accumulator& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(count_ + other.count_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) / total;
  mean_ = (mean_ * static_cast<double>(count_) +
           other.mean_ * static_cast<double>(other.count_)) /
          total;
  sum_ += other.sum_;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void ReservoirSample::add(double x) noexcept {
  ++seen_;
  if (sample_.size() < capacity_) {
    sample_.push_back(x);
    sorted_dirty_ = true;
    return;
  }
  const std::uint64_t j = rng_.below(seen_);
  if (j < capacity_) {
    sample_[static_cast<std::size_t>(j)] = x;
    sorted_dirty_ = true;
  }
}

double ReservoirSample::quantile(double p) const {
  if (sample_.empty()) throw std::logic_error{"ReservoirSample::quantile: empty"};
  if (p < 0.0 || p > 1.0) throw std::invalid_argument{"quantile: p outside [0,1]"};
  if (sorted_dirty_) {
    sorted_ = sample_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_dirty_ = false;
  }
  const double idx = p * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

}  // namespace tl::util
