// ANOVA, Kruskal-Wallis, OLS and quantile regression.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/anova.hpp"
#include "analysis/linear_model.hpp"
#include "util/rng.hpp"

namespace tl::analysis {
namespace {

TEST(Anova, NoEffectGivesSmallF) {
  util::Rng rng{5};
  std::vector<std::vector<double>> groups(3);
  for (auto& g : groups) {
    for (int i = 0; i < 500; ++i) g.push_back(rng.normal());
  }
  const auto r = one_way_anova(groups);
  EXPECT_LT(r.f_statistic, 5.0);
  EXPECT_GT(r.p_value, 0.001);
  EXPECT_LT(r.eta_squared, 0.02);
}

TEST(Anova, LargeShiftIsSignificant) {
  util::Rng rng{6};
  std::vector<std::vector<double>> groups(3);
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 300; ++i) groups[g].push_back(rng.normal() + g * 3.0);
  }
  const auto r = one_way_anova(groups);
  EXPECT_GT(r.f_statistic, 100.0);
  EXPECT_LT(r.p_value, 1e-6);
  EXPECT_GT(r.eta_squared, 0.5);
}

TEST(Anova, MatchesHandComputedExample) {
  // Classic small example: groups {1,2,3}, {2,3,4}, {5,6,7}.
  const std::vector<std::vector<double>> groups{{1, 2, 3}, {2, 3, 4}, {5, 6, 7}};
  const auto r = one_way_anova(groups);
  // Grand mean 33/9, SSB = 3*((2-m)^2+(3-m)^2+(6-m)^2), SSW = 6.
  EXPECT_NEAR(r.ss_within, 6.0, 1e-9);
  EXPECT_NEAR(r.ss_between, 26.0, 1e-9);
  EXPECT_NEAR(r.f_statistic, (26.0 / 2.0) / (6.0 / 6.0), 1e-9);
}

TEST(Anova, RejectsDegenerateInput) {
  EXPECT_THROW(one_way_anova(std::vector<std::vector<double>>{{1.0}}),
               std::invalid_argument);
  EXPECT_THROW(one_way_anova(std::vector<std::vector<double>>{{1.0}, {}}),
               std::invalid_argument);
}

TEST(KruskalWallis, DetectsLocationShift) {
  util::Rng rng{8};
  std::vector<std::vector<double>> groups(2);
  for (int i = 0; i < 300; ++i) {
    groups[0].push_back(rng.normal());
    groups[1].push_back(rng.normal() + 2.0);
  }
  const auto r = kruskal_wallis(groups);
  EXPECT_LT(r.p_value, 1e-9);
  EXPECT_EQ(r.df, 1.0);
}

TEST(KruskalWallis, NullCaseNotSignificant) {
  util::Rng rng{9};
  std::vector<std::vector<double>> groups(3);
  for (auto& g : groups) {
    for (int i = 0; i < 200; ++i) g.push_back(rng.normal());
  }
  EXPECT_GT(kruskal_wallis(groups).p_value, 0.001);
}

TEST(KruskalWallis, TieCorrectionKeepsStatisticFinite) {
  // Heavy ties: values drawn from {0, 1}.
  std::vector<std::vector<double>> groups{{0, 0, 1, 1, 0}, {1, 1, 0, 1, 1}};
  const auto r = kruskal_wallis(groups);
  EXPECT_TRUE(std::isfinite(r.h_statistic));
  EXPECT_GE(r.p_value, 0.0);
  EXPECT_LE(r.p_value, 1.0);
}

// ---------------------------------------------------------------------------

TEST(DesignBuilder, BuildsInterceptAndDummies) {
  DesignBuilder d{4};
  d.add_numeric("x", std::vector<double>{1, 2, 3, 4});
  const std::vector<std::uint32_t> codes{0, 1, 2, 1};
  d.add_categorical("g", codes, {"a", "b", "c"}, 0);
  EXPECT_EQ(d.parameters(), 4u);  // intercept + x + 2 dummies
  const auto x = d.build_matrix();
  // Row 1: intercept 1, x=2, g=b -> dummy b = 1, dummy c = 0.
  EXPECT_EQ(x[4], 1.0);
  EXPECT_EQ(x[5], 2.0);
  EXPECT_EQ(x[6], 1.0);
  EXPECT_EQ(x[7], 0.0);
  EXPECT_THROW(d.add_numeric("bad", std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Ols, RecoversKnownCoefficients) {
  util::Rng rng{10};
  const std::size_t n = 5'000;
  std::vector<double> x1(n), x2(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x1[i] = rng.normal();
    x2[i] = rng.normal();
    y[i] = 1.5 - 2.0 * x1[i] + 0.7 * x2[i] + rng.normal() * 0.5;
  }
  DesignBuilder d{n};
  d.add_numeric("x1", x1);
  d.add_numeric("x2", x2);
  const auto model = fit_ols(d, y);
  EXPECT_NEAR(model.term("(Intercept)").coefficient, 1.5, 0.03);
  EXPECT_NEAR(model.term("x1").coefficient, -2.0, 0.03);
  EXPECT_NEAR(model.term("x2").coefficient, 0.7, 0.03);
  EXPECT_GT(model.r_squared, 0.9);
  EXPECT_LT(model.term("x1").p_value, 1e-10);
  // The true value lies inside the 95% CI (holds with margin at this n).
  EXPECT_LT(model.term("x1").ci_lo, -2.0 + 0.05);
  EXPECT_GT(model.term("x1").ci_hi, -2.0 - 0.05);
}

TEST(Ols, CategoricalEffectsMatchGroupMeans) {
  // y = 10 for baseline, 12 for level b (exact, no noise).
  DesignBuilder d{6};
  const std::vector<std::uint32_t> codes{0, 0, 0, 1, 1, 1};
  d.add_categorical("g", codes, {"a", "b"}, 0);
  const std::vector<double> y{10, 10, 10, 12, 12, 12};
  const auto model = fit_ols(d, y);
  EXPECT_NEAR(model.term("(Intercept)").coefficient, 10.0, 1e-9);
  EXPECT_NEAR(model.term("g: b").coefficient, 2.0, 1e-9);
  EXPECT_NEAR(model.rmse, 0.0, 1e-9);
}

TEST(Ols, InsignificantCovariateHasHighP) {
  util::Rng rng{11};
  const std::size_t n = 2'000;
  std::vector<double> x(n), noise(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.normal();
    noise[i] = rng.normal();
    y[i] = 3.0 * x[i] + rng.normal();
  }
  DesignBuilder d{n};
  d.add_numeric("x", x);
  d.add_numeric("noise", noise);
  const auto model = fit_ols(d, y);
  EXPECT_GT(model.term("noise").p_value, 0.001);
  EXPECT_LT(model.term("x").p_value, 1e-10);
}

TEST(Ols, AicPrefersTrueModel) {
  util::Rng rng{12};
  const std::size_t n = 1'000;
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.normal();
    y[i] = 2.0 * x[i] + rng.normal();
  }
  DesignBuilder with{n};
  with.add_numeric("x", x);
  DesignBuilder without{n};
  without.add_numeric("junk", std::vector<double>(n, 0.0));
  // A constant column is collinear with the intercept; the jittered
  // Cholesky still solves it, and the fit is just the mean model.
  const auto good = fit_ols(with, y);
  const auto bad = fit_ols(without, y);
  EXPECT_LT(good.aic, bad.aic);
}

TEST(QuantileRegression, MedianFitMatchesOlsOnSymmetricNoise) {
  util::Rng rng{13};
  const std::size_t n = 4'000;
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(0.0, 10.0);
    y[i] = 5.0 + 1.2 * x[i] + rng.normal();
  }
  DesignBuilder d{n};
  d.add_numeric("x", x);
  const auto fit = fit_quantile(d, y, 0.5);
  EXPECT_TRUE(fit.converged);
  EXPECT_NEAR(fit.terms[0].coefficient, 5.0, 0.15);
  EXPECT_NEAR(fit.terms[1].coefficient, 1.2, 0.03);
}

TEST(QuantileRegression, TauShiftsInterceptByNoiseQuantile) {
  util::Rng rng{14};
  const std::size_t n = 20'000;
  std::vector<double> x(n, 0.0), y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = rng.normal();  // pure noise
  DesignBuilder d{n};
  d.add_numeric("x", x);
  const auto q20 = fit_quantile(d, y, 0.2);
  const auto q80 = fit_quantile(d, y, 0.8);
  EXPECT_NEAR(q20.terms[0].coefficient, -0.8416, 0.05);
  EXPECT_NEAR(q80.terms[0].coefficient, 0.8416, 0.05);
}

TEST(QuantileRegression, RejectsBadTau) {
  DesignBuilder d{10};
  d.add_numeric("x", std::vector<double>(10, 1.0));
  const std::vector<double> y(10, 0.0);
  EXPECT_THROW(fit_quantile(d, y, 0.0), std::invalid_argument);
  EXPECT_THROW(fit_quantile(d, y, 1.0), std::invalid_argument);
}

class OlsSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OlsSizeSweep, CoefficientRecoveryAcrossSampleSizes) {
  util::Rng rng{15 + GetParam()};
  const std::size_t n = GetParam();
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.normal();
    y[i] = 4.0 + 1.0 * x[i] + rng.normal() * 0.3;
  }
  DesignBuilder d{n};
  d.add_numeric("x", x);
  const auto model = fit_ols(d, y);
  const double tolerance = 4.0 * 0.3 / std::sqrt(static_cast<double>(n));
  EXPECT_NEAR(model.term("x").coefficient, 1.0, tolerance);
}

INSTANTIATE_TEST_SUITE_P(Sizes, OlsSizeSweep, ::testing::Values(50u, 500u, 5'000u));

}  // namespace
}  // namespace tl::analysis
