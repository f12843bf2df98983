#pragma once

// Streaming statistics over unbounded record streams.
//
// Aggregating sinks cannot retain every handover record (the real pipeline
// sees ~1.7B/day); Welford accumulators give exact mean/variance in O(1)
// memory, and ReservoirSample keeps an unbiased fixed-size subsample for
// quantile-style readouts at country scale.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace tl::util {

/// Welford online mean/variance with min/max tracking.
class Accumulator {
 public:
  void add(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    sum_ += x;
  }

  void merge(const Accumulator& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Algorithm-R reservoir sample of fixed capacity.
class ReservoirSample {
 public:
  explicit ReservoirSample(std::size_t capacity, std::uint64_t seed = 0x5eed)
      : capacity_(capacity), rng_(seed) {
    sample_.reserve(capacity);
  }

  void add(double x) noexcept;

  std::uint64_t seen() const noexcept { return seen_; }
  const std::vector<double>& values() const noexcept { return sample_; }

  /// Quantile over the reservoir, p in [0,1]. The sorted view is cached and
  /// only rebuilt after add() dirtied it, so quantile sweeps (every scrape
  /// of a monitoring readout) sort once instead of once per call.
  double quantile(double p) const;

 private:
  std::size_t capacity_;
  Rng rng_;
  std::uint64_t seen_ = 0;
  std::vector<double> sample_;
  mutable std::vector<double> sorted_;  // cache: sample_ sorted
  mutable bool sorted_dirty_ = true;
};

}  // namespace tl::util
