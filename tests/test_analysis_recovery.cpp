// The headline check: the analysis layer must *recover* the paper's
// findings from simulated records — regressions, ANOVA, correlations.

#include <gtest/gtest.h>

#include "core/hof_dataset.hpp"
#include "core/home_inference.hpp"
#include "core/report.hpp"
#include "core/usage_model.hpp"
#include "test_world.hpp"

namespace tl::core {
namespace {

using testing::TestWorld;

const HofModelingDataset& modeling_dataset() {
  static const HofModelingDataset ds = [] {
    const auto& w = TestWorld::instance();
    return HofModelingDataset::build(*w.sector_day, w.sim->deployment(),
                                     w.sim->country());
  }();
  return ds;
}

TEST(Recovery, MedianHofRatesOrderLikeThePaper) {
  const auto medians = modeling_dataset().median_rate_by_type();
  // Paper §6.3: 0.04% intra, 5.85% to 3G (2G is rare at test scale).
  EXPECT_LT(medians[static_cast<std::size_t>(topology::ObservedRat::kG45Nsa)], 1.0);
  EXPECT_GT(medians[static_cast<std::size_t>(topology::ObservedRat::kG3)], 1.0);
}

TEST(Recovery, AnovaConfirmsHoTypeEffect) {
  const auto anova = modeling_dataset().anova_by_type();
  EXPECT_LT(anova.p_value, 0.001);
  EXPECT_GT(anova.eta_squared, 0.3);  // paper: 0.81 at full scale
}

TEST(Recovery, KruskalWallisAgrees) {
  EXPECT_LT(modeling_dataset().kruskal_wallis_by_type().p_value, 0.001);
}

TEST(Recovery, UnivariateRegressionRecovers3gCoefficient) {
  const auto model = modeling_dataset().nonzero().fit_univariate();
  // Paper Table 4: +5.12 for ->3G vs intra (log scale). Band is wide at
  // test scale but the effect must be large and positive.
  const auto& term_3g = model.term("HO type: 4G/5G-NSA to 3G");
  EXPECT_GT(term_3g.coefficient, 3.0);
  EXPECT_LT(term_3g.coefficient, 7.0);
  EXPECT_LT(term_3g.p_value, 1e-6);
  EXPECT_LT(model.term("(Intercept)").coefficient, 0.0);
}

TEST(Recovery, FullModelKeepsHoTypeDominant) {
  const auto model = modeling_dataset().filtered().fit_full();
  const auto& term_3g = model.term("HO type: 4G/5G-NSA to 3G");
  EXPECT_GT(term_3g.coefficient, 2.0);
  EXPECT_LT(term_3g.p_value, 1e-6);
  // Secondary effects exist but are much smaller (paper Table 5).
  const auto& rural = model.term("Area Type: Rural");
  EXPECT_LT(std::abs(rural.coefficient), 1.5);
  const auto& v3 = model.term("Antenna Vendor: V3");
  EXPECT_GT(v3.coefficient, 0.0);  // V3 runs hotter by construction
}

TEST(Recovery, QuantileRegressionIsStableAcrossTaus) {
  const auto& ds = modeling_dataset();
  const auto filtered = ds.filtered(50.0, 5, 30'000);
  double prev_intercept = -100.0;
  for (const double tau : {0.2, 0.4, 0.6, 0.8}) {
    const auto fit = filtered.fit_quantile(tau);
    ASSERT_GE(fit.terms.size(), 2u);
    // Higher quantile -> higher intercept (log rates shift up).
    EXPECT_GT(fit.terms[0].coefficient, prev_intercept);
    prev_intercept = fit.terms[0].coefficient;
    // The ->3G effect stays large and positive at every quantile
    // (paper Table 8: ~4.8-5.0).
    EXPECT_GT(fit.terms[1].coefficient, 2.5);
  }
}

TEST(Recovery, StepwiseSelectionPicksHoTypeFirst) {
  // Appendix B robustness: the greedy AIC search must pick HO type as the
  // first covariate — it carries almost all the explainable variance.
  const auto result = modeling_dataset().filtered().fit_stepwise();
  ASSERT_FALSE(result.selected.empty());
  EXPECT_EQ(result.selected.front(), "HO type");
  // The selected model is at least as good (by AIC) as HO type alone.
  const auto univariate = modeling_dataset().filtered().fit_univariate();
  EXPECT_LE(result.model.aic, univariate.aic + 1e-6);
}

TEST(Recovery, Table6SummaryShapes) {
  const auto& ds = modeling_dataset();
  const auto hos = ds.summary_daily_hos();
  EXPECT_GE(hos.min, 1.0);
  EXPECT_GT(hos.mean, hos.median);  // heavy right tail, as in Table 6
  const auto rate = ds.summary_hof_rate();
  EXPECT_EQ(rate.min, 0.0);
  EXPECT_GT(rate.mean, rate.median);  // zero-inflated with a long tail
}

TEST(Recovery, FiltersBehave) {
  const auto& ds = modeling_dataset();
  EXPECT_GT(ds.size(), 100u);
  EXPECT_LT(ds.nonzero().size(), ds.size());
  // rows() is a span into the dataset: keep each filtered dataset alive
  // for its loop.
  const auto no_2g = ds.without_2g();
  for (const auto& row : no_2g.rows()) {
    EXPECT_NE(row.target, topology::ObservedRat::kG2);
  }
  const auto bounded = ds.filtered(50.0, 10, 1000);
  for (const auto& row : bounded.rows()) {
    EXPECT_GT(row.hof_rate_pct, 0.0);
    EXPECT_LT(row.hof_rate_pct, 50.0);
    EXPECT_GE(row.daily_hos, 10u);
    EXPECT_LE(row.daily_hos, 1000u);
  }
}

TEST(Recovery, HomeInferenceTracksCensus) {
  const auto& w = TestWorld::instance();
  const auto result = infer_home_locations(w.sim->country(), w.sim->deployment(),
                                           w.sim->population());
  // Paper Fig. 5: R^2 = 0.92. Wide band at test scale.
  EXPECT_GT(result.r_squared(), 0.75);
  EXPECT_LT(result.r_squared(), 1.0);
  EXPECT_GT(result.fit.slope, 0.0);
}

TEST(Recovery, HoDensityCorrelatesWithPopulation) {
  const auto& w = TestWorld::instance();
  const auto density = district_ho_density(*w.sim, *w.districts);
  // Paper Fig. 6: Pearson 0.97.
  EXPECT_GT(density.pearson, 0.85);
  EXPECT_GT(density.max_hos_per_km2, 50.0 * std::max(density.min_hos_per_km2, 0.01));
}

TEST(Recovery, DistrictRatSharesShowRuralLegacyTail) {
  const auto& w = TestWorld::instance();
  const auto shares = district_rat_shares(*w.sim, *w.districts);
  EXPECT_GT(shares.max_intra_share, 0.95);  // urban districts ~99% intra
  EXPECT_GT(shares.max_3g_share, 0.10);     // some remote district leans on 3G
  EXPECT_GT(shares.mean_3g_least_dense, 0.015);
  for (const auto& s : shares.shares) {
    const double sum = s[0] + s[1] + s[2];
    if (sum > 0.0) EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Recovery, UsageModelMatchesFig3b) {
  const auto& w = TestWorld::instance();
  const UsageModel usage{w.sim->population(), w.sim->coverage()};
  const auto r = usage.compute(3);
  const double sum = r.time_share[0] + r.time_share[1] + r.time_share[2];
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Paper: ~82% on 4G/5G, ~8.9% each on 2G and 3G.
  EXPECT_NEAR(r.time_share[2], 0.82, 0.06);
  EXPECT_NEAR(r.time_share[0], 0.089, 0.05);
  EXPECT_NEAR(r.time_share[1], 0.089, 0.05);
  // Traffic: legacy RATs carry only ~5.2% UL / ~2.1% DL.
  EXPECT_LT(r.uplink_share[0] + r.uplink_share[1], 0.12);
  EXPECT_LT(r.downlink_share[0] + r.downlink_share[1],
            r.uplink_share[0] + r.uplink_share[1]);
  EXPECT_GT(r.downlink_share[2], 0.95);
  // Error bars exist and bracket the mean.
  EXPECT_LE(r.time_share_min[2], r.time_share[2]);
  EXPECT_GE(r.time_share_max[2], r.time_share[2]);
}

TEST(Recovery, ManufacturerOutliersSurface) {
  const auto& w = TestWorld::instance();
  const auto result = manufacturer_normalized(*w.sim, *w.districts, 5);
  ASSERT_FALSE(result.rows.empty());
  // Top-share manufacturers behave like their district peers (ratio ~ 1).
  for (const std::size_t idx : result.top5_by_share) {
    EXPECT_NEAR(result.rows[idx].median_hos, 1.0, 0.35);
  }
  // The engineered outliers (KVD / HMD at 7x HOF) rank worst where present.
  if (!result.top5_by_hof.empty()) {
    const auto& worst = result.rows[result.top5_by_hof.front()];
    EXPECT_GT(worst.median_hof_rate, 1.2);
  }
}

TEST(Recovery, Fig13HighMobilityUesFailMore) {
  const auto& w = TestWorld::instance();
  std::vector<double> low_rates, high_rates;
  for (const auto& row : w.ue_days.rows()) {
    if (row.handovers == 0) continue;
    (row.distinct_sectors > 50 ? high_rates : low_rates).push_back(row.hof_rate());
  }
  ASSERT_GT(low_rates.size(), 100u);
  if (high_rates.size() > 30) {
    EXPECT_GE(analysis::quantile(high_rates, 0.75), analysis::quantile(low_rates, 0.75));
  }
  // The bulk of UEs sees (near-)zero HOF rate.
  EXPECT_LT(analysis::median(low_rates), 0.01);
}

TEST(Recovery, DatasetStatsScaleToNationalNumbers) {
  const auto& w = TestWorld::instance();
  const auto stats = dataset_stats(*w.sim, w.sim->records_emitted());
  EXPECT_EQ(stats.ues_measured, w.sim->population().size());
  EXPECT_NEAR(stats.full_scale_ues, 40e6, 1.0);
  EXPECT_GT(stats.full_scale_daily_handovers, 2e8);  // order of the paper's 1.7B
  EXPECT_LT(stats.full_scale_daily_handovers, 1e10);
}

}  // namespace
}  // namespace tl::core
