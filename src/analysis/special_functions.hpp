#pragma once

// Special functions needed for p-values: regularized incomplete gamma and
// beta functions, and the CDFs of the chi-squared, Student-t, and F
// distributions built on them. Implemented from first principles (Numerical
// Recipes-style series/continued fractions) — no external math library.

namespace tl::analysis {

/// Regularized lower incomplete gamma P(a, x), a > 0, x >= 0.
double regularized_gamma_p(double a, double x);

/// Regularized incomplete beta I_x(a, b) for a,b > 0, x in [0,1].
double regularized_beta(double a, double b, double x);

/// Chi-squared CDF with k degrees of freedom.
double chi_squared_cdf(double x, double k);

/// Student-t CDF with nu degrees of freedom.
double student_t_cdf(double t, double nu);

/// Two-sided p-value for a t statistic.
double student_t_two_sided_p(double t, double nu);

/// F distribution CDF with (d1, d2) degrees of freedom.
double f_cdf(double x, double d1, double d2);

/// Upper-tail p-value of an F statistic.
double f_upper_p(double x, double d1, double d2);

/// Standard normal CDF.
double normal_cdf(double z);

}  // namespace tl::analysis
