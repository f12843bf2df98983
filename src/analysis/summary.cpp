#include "analysis/summary.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tl::analysis {

double quantile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument{"quantile: empty input"};
  if (p < 0.0 || p > 1.0) throw std::invalid_argument{"quantile: p outside [0,1]"};
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double quantile(std::span<const double> values, double p) {
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return quantile_sorted(sorted, p);
}

double median(std::span<const double> values) { return quantile(values, 0.5); }

double mean(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument{"mean: empty input"};
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

SixNumberSummary summarize(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument{"summarize: empty input"};
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  SixNumberSummary s;
  s.min = sorted.front();
  s.max = sorted.back();
  s.q1 = quantile_sorted(sorted, 0.25);
  s.median = quantile_sorted(sorted, 0.5);
  s.q3 = quantile_sorted(sorted, 0.75);
  s.mean = mean(values);
  return s;
}

BoxplotStats boxplot(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument{"boxplot: empty input"};
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  BoxplotStats b;
  b.n = sorted.size();
  b.q1 = quantile_sorted(sorted, 0.25);
  b.median = quantile_sorted(sorted, 0.5);
  b.q3 = quantile_sorted(sorted, 0.75);
  b.mean = mean(values);
  const double iqr = b.q3 - b.q1;
  const double lo_fence = b.q1 - 1.5 * iqr;
  const double hi_fence = b.q3 + 1.5 * iqr;
  b.whisker_lo = sorted.front();
  b.whisker_hi = sorted.back();
  for (const double v : sorted) {
    if (v >= lo_fence) {
      b.whisker_lo = v;
      break;
    }
  }
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    if (*it <= hi_fence) {
      b.whisker_hi = *it;
      break;
    }
  }
  for (const double v : sorted) {
    if (v < lo_fence || v > hi_fence) ++b.outliers;
  }
  return b;
}

std::vector<double> log_transform_positive(std::span<const double> values) {
  std::vector<double> out;
  out.reserve(values.size());
  for (const double v : values) {
    if (v > 0.0) out.push_back(std::log(v));
  }
  return out;
}

}  // namespace tl::analysis
