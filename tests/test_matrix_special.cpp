// Dense linear algebra and special-function accuracy.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/matrix.hpp"
#include "analysis/special_functions.hpp"

namespace tl::analysis {
namespace {

TEST(Matrix, MultiplyAndTranspose) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  const Matrix at = a.transpose();
  EXPECT_EQ(at.rows(), 3u);
  EXPECT_EQ(at(2, 1), 6.0);
  const Matrix aat = a * at;
  EXPECT_EQ(aat.rows(), 2u);
  EXPECT_EQ(aat(0, 0), 14.0);
  EXPECT_EQ(aat(0, 1), 32.0);
  EXPECT_EQ(aat(1, 1), 77.0);
}

TEST(Matrix, GramEqualsExplicitProduct) {
  Matrix x(4, 2);
  double v = 1.0;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 2; ++c) x(r, c) = v++;
  }
  const Matrix g = x.gram();
  const Matrix ref = x.transpose() * x;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) EXPECT_NEAR(g(i, j), ref(i, j), 1e-12);
  }
}

TEST(Matrix, TransposeTimesVector) {
  Matrix x(3, 2);
  x(0, 0) = 1; x(0, 1) = 2;
  x(1, 0) = 3; x(1, 1) = 4;
  x(2, 0) = 5; x(2, 1) = 6;
  const auto xty = x.transpose_times({1.0, 1.0, 1.0});
  EXPECT_NEAR(xty[0], 9.0, 1e-12);
  EXPECT_NEAR(xty[1], 12.0, 1e-12);
}

TEST(Cholesky, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 4; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 3;
  const Cholesky chol{a};
  const auto x = chol.solve({8.0, 7.0});  // solution (1.25, 1.5)
  EXPECT_NEAR(x[0], 1.25, 1e-10);
  EXPECT_NEAR(x[1], 1.5, 1e-10);
}

TEST(Cholesky, InverseTimesOriginalIsIdentity) {
  Matrix a(3, 3);
  a(0, 0) = 6; a(0, 1) = 2; a(0, 2) = 1;
  a(1, 0) = 2; a(1, 1) = 5; a(1, 2) = 2;
  a(2, 0) = 1; a(2, 1) = 2; a(2, 2) = 4;
  const Cholesky chol{a};
  const Matrix product = chol.inverse() * a;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(product(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(Cholesky, JitterRescuesNearSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 1.0 + 1e-14;
  EXPECT_NO_THROW(Cholesky{a});
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 0.0;
  a(1, 0) = 0.0; a(1, 1) = -5.0;
  EXPECT_THROW(Cholesky{a}, std::runtime_error);
}

// Reference values from R: pchisq, pt, pf, pnorm.
TEST(SpecialFunctions, ChiSquaredCdf) {
  EXPECT_NEAR(chi_squared_cdf(3.841459, 1), 0.95, 1e-6);
  EXPECT_NEAR(chi_squared_cdf(5.991465, 2), 0.95, 1e-6);
  EXPECT_NEAR(chi_squared_cdf(0.0, 3), 0.0, 1e-12);
  EXPECT_NEAR(chi_squared_cdf(100.0, 3), 1.0, 1e-9);
}

TEST(SpecialFunctions, StudentTCdf) {
  EXPECT_NEAR(student_t_cdf(0.0, 10), 0.5, 1e-12);
  EXPECT_NEAR(student_t_cdf(2.228139, 10), 0.975, 1e-6);
  EXPECT_NEAR(student_t_cdf(-2.228139, 10), 0.025, 1e-6);
  EXPECT_NEAR(student_t_cdf(1.959964, 1e6), 0.975, 1e-4);
}

TEST(SpecialFunctions, TwoSidedP) {
  EXPECT_NEAR(student_t_two_sided_p(2.228139, 10), 0.05, 1e-6);
  EXPECT_NEAR(student_t_two_sided_p(0.0, 10), 1.0, 1e-12);
}

TEST(SpecialFunctions, FCdf) {
  // qf(0.95, 3, 10) = 3.708265
  EXPECT_NEAR(f_cdf(3.708265, 3, 10), 0.95, 1e-6);
  EXPECT_NEAR(f_upper_p(3.708265, 3, 10), 0.05, 1e-6);
  EXPECT_NEAR(f_cdf(0.0, 3, 10), 0.0, 1e-12);
}

TEST(SpecialFunctions, NormalCdf) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959964), 0.975, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.959964), 0.025, 1e-6);
}

TEST(SpecialFunctions, RegularizedBetaSymmetry) {
  // I_x(a, b) = 1 - I_{1-x}(b, a)
  const double v = regularized_beta(2.5, 3.5, 0.3);
  EXPECT_NEAR(v, 1.0 - regularized_beta(3.5, 2.5, 0.7), 1e-10);
  EXPECT_NEAR(regularized_beta(1.0, 1.0, 0.42), 0.42, 1e-10);  // uniform case
}

TEST(SpecialFunctions, RegularizedGammaBounds) {
  EXPECT_NEAR(regularized_gamma_p(1.0, 0.0), 0.0, 1e-12);
  // P(1, x) = 1 - exp(-x)
  EXPECT_NEAR(regularized_gamma_p(1.0, 2.0), 1.0 - std::exp(-2.0), 1e-10);
  EXPECT_THROW(regularized_gamma_p(0.0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace tl::analysis
