#pragma once

// Descriptive statistics: quantiles, the paper's Table-6-style six-number
// summary, and boxplot statistics (Figs. 11, 12, 18).

#include <span>
#include <vector>

namespace tl::analysis {

/// Linear-interpolated quantile of unsorted data; p in [0, 1].
double quantile(std::span<const double> values, double p);

/// Quantile of data already sorted ascending.
double quantile_sorted(std::span<const double> sorted, double p);

double median(std::span<const double> values);
double mean(std::span<const double> values);

/// Min / 1st Qu / Median / Mean / 3rd Qu / Max, as R's summary() prints.
struct SixNumberSummary {
  double min = 0, q1 = 0, median = 0, mean = 0, q3 = 0, max = 0;
};
SixNumberSummary summarize(std::span<const double> values);

/// Boxplot statistics with 1.5*IQR whiskers.
struct BoxplotStats {
  double q1 = 0, median = 0, q3 = 0;
  double whisker_lo = 0, whisker_hi = 0;
  double mean = 0;
  std::size_t n = 0;
  std::size_t outliers = 0;
};
BoxplotStats boxplot(std::span<const double> values);

/// Natural-log transform with the paper's handling of zeros: entries <= 0
/// are dropped (the models regress log HOF rate over non-zero rates).
std::vector<double> log_transform_positive(std::span<const double> values);

}  // namespace tl::analysis
