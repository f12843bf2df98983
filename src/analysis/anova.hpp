#pragma once

// One-way analysis of variance with effect size, plus the Kruskal–Wallis
// rank test — the §6.3/Appendix-B toolchain the paper uses to establish the
// HO-type effect on HOF rates.

#include <span>
#include <string>
#include <vector>

namespace tl::analysis {

struct AnovaResult {
  double f_statistic = 0;
  double df_between = 0;
  double df_within = 0;
  double p_value = 0;
  double eta_squared = 0;  // SS_between / SS_total
  double ss_between = 0;
  double ss_within = 0;
};

/// One-way ANOVA over k groups. Throws if fewer than 2 groups or any group
/// is empty, or if total sample size <= number of groups.
AnovaResult one_way_anova(std::span<const std::vector<double>> groups);

struct KruskalWallisResult {
  double h_statistic = 0;  // tie-corrected
  double df = 0;
  double p_value = 0;
};

/// Kruskal–Wallis one-way rank test with tie correction.
KruskalWallisResult kruskal_wallis(std::span<const std::vector<double>> groups);

}  // namespace tl::analysis
