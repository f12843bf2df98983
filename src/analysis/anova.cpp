#include "analysis/anova.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "analysis/special_functions.hpp"

namespace tl::analysis {

namespace {

void validate_groups(std::span<const std::vector<double>> groups) {
  if (groups.size() < 2) throw std::invalid_argument{"need at least 2 groups"};
  for (const auto& g : groups) {
    if (g.empty()) throw std::invalid_argument{"empty group"};
  }
}

}  // namespace

AnovaResult one_way_anova(std::span<const std::vector<double>> groups) {
  validate_groups(groups);
  const std::size_t k = groups.size();
  std::size_t n_total = 0;
  double grand_sum = 0.0;
  for (const auto& g : groups) {
    n_total += g.size();
    for (const double v : g) grand_sum += v;
  }
  if (n_total <= k) throw std::invalid_argument{"one_way_anova: too few observations"};
  const double grand_mean = grand_sum / static_cast<double>(n_total);

  double ss_between = 0.0;
  double ss_within = 0.0;
  for (const auto& g : groups) {
    double gsum = 0.0;
    for (const double v : g) gsum += v;
    const double gmean = gsum / static_cast<double>(g.size());
    ss_between += static_cast<double>(g.size()) * (gmean - grand_mean) * (gmean - grand_mean);
    for (const double v : g) ss_within += (v - gmean) * (v - gmean);
  }

  AnovaResult r;
  r.ss_between = ss_between;
  r.ss_within = ss_within;
  r.df_between = static_cast<double>(k - 1);
  r.df_within = static_cast<double>(n_total - k);
  const double ms_between = ss_between / r.df_between;
  const double ms_within = ss_within / r.df_within;
  r.f_statistic = ms_within > 0.0 ? ms_between / ms_within
                                  : std::numeric_limits<double>::infinity();
  r.p_value = std::isfinite(r.f_statistic)
                  ? f_upper_p(r.f_statistic, r.df_between, r.df_within)
                  : 0.0;
  const double ss_total = ss_between + ss_within;
  r.eta_squared = ss_total > 0.0 ? ss_between / ss_total : 0.0;
  return r;
}

KruskalWallisResult kruskal_wallis(std::span<const std::vector<double>> groups) {
  validate_groups(groups);
  const std::size_t k = groups.size();

  // Pool all observations, remembering group membership.
  struct Tagged {
    double value;
    std::size_t group;
  };
  std::vector<Tagged> pooled;
  for (std::size_t g = 0; g < k; ++g) {
    for (const double v : groups[g]) pooled.push_back({v, g});
  }
  const std::size_t n = pooled.size();
  std::sort(pooled.begin(), pooled.end(),
            [](const Tagged& a, const Tagged& b) { return a.value < b.value; });

  // Average ranks with tie correction term.
  std::vector<double> rank_sum(k, 0.0);
  double tie_correction = 0.0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && pooled[j + 1].value == pooled[i].value) ++j;
    const double avg_rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    const double t = static_cast<double>(j - i + 1);
    if (t > 1.0) tie_correction += t * t * t - t;
    for (std::size_t m = i; m <= j; ++m) rank_sum[pooled[m].group] += avg_rank;
    i = j + 1;
  }

  const double dn = static_cast<double>(n);
  double h = 0.0;
  for (std::size_t g = 0; g < k; ++g) {
    const double ng = static_cast<double>(groups[g].size());
    h += rank_sum[g] * rank_sum[g] / ng;
  }
  h = 12.0 / (dn * (dn + 1.0)) * h - 3.0 * (dn + 1.0);
  const double correction = 1.0 - tie_correction / (dn * dn * dn - dn);
  if (correction > 0.0) h /= correction;

  KruskalWallisResult r;
  r.h_statistic = h;
  r.df = static_cast<double>(k - 1);
  r.p_value = 1.0 - chi_squared_cdf(h, r.df);
  return r;
}

}  // namespace tl::analysis
