#include "analysis/special_functions.hpp"

#include <cmath>
#include <stdexcept>

namespace tl::analysis {

namespace {

constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-14;
constexpr double kTiny = 1e-300;

/// Series expansion of P(a,x), valid for x < a + 1.
double gamma_p_series(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int n = 0; n < kMaxIterations; ++n) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * kEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

/// Continued fraction for Q(a,x) = 1 - P(a,x), valid for x >= a + 1.
double gamma_q_continued_fraction(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEpsilon) break;
  }
  return std::exp(-x + a * std::log(x) - std::lgamma(a)) * h;
}

/// Lentz continued fraction for the incomplete beta function.
double beta_continued_fraction(double a, double b, double x) {
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const int m2 = 2 * m;
    double aa = static_cast<double>(m) * (b - m) * x /
                ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEpsilon) break;
  }
  return h;
}

}  // namespace

double regularized_gamma_p(double a, double x) {
  if (a <= 0.0) throw std::invalid_argument{"regularized_gamma_p: a must be > 0"};
  if (x < 0.0) throw std::invalid_argument{"regularized_gamma_p: x must be >= 0"};
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_continued_fraction(a, x);
}

double regularized_beta(double a, double b, double x) {
  if (a <= 0.0 || b <= 0.0) throw std::invalid_argument{"regularized_beta: a,b must be > 0"};
  if (x < 0.0 || x > 1.0) throw std::invalid_argument{"regularized_beta: x outside [0,1]"};
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double ln_front = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                          a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_continued_fraction(a, b, x) / a;
  }
  return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

double chi_squared_cdf(double x, double k) {
  if (x <= 0.0) return 0.0;
  return regularized_gamma_p(k / 2.0, x / 2.0);
}

double student_t_cdf(double t, double nu) {
  if (nu <= 0.0) throw std::invalid_argument{"student_t_cdf: nu must be > 0"};
  const double x = nu / (nu + t * t);
  const double tail = 0.5 * regularized_beta(nu / 2.0, 0.5, x);
  return t >= 0.0 ? 1.0 - tail : tail;
}

double student_t_two_sided_p(double t, double nu) {
  const double x = nu / (nu + t * t);
  return regularized_beta(nu / 2.0, 0.5, x);
}

double f_cdf(double x, double d1, double d2) {
  if (x <= 0.0) return 0.0;
  return regularized_beta(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2));
}

double f_upper_p(double x, double d1, double d2) { return 1.0 - f_cdf(x, d1, d2); }

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

}  // namespace tl::analysis
