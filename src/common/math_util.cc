// Copyright 2026 The LearnRisk Authors

#include "common/math_util.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace learnrisk {
namespace {


// Acklam's rational approximation to the inverse normal CDF.
double AcklamQuantile(double p) {
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  constexpr double p_high = 1.0 - p_low;

  if (p < p_low) {
    double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= p_high) {
    double q = p - 0.5;
    double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

}  // namespace

double NormalQuantile(double p) {
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  double x = AcklamQuantile(p);
  // One Halley refinement step pushes the approximation to near machine
  // precision; NormalCdf is erfc-based and therefore trustworthy in both
  // tails.
  double e = NormalCdf(x) - p;
  double u = e * std::sqrt(2.0 * M_PI) * std::exp(0.5 * x * x);
  x = x - u / (1.0 + 0.5 * x * u);
  return x;
}

double NormalCdf(double x, double mu, double sigma) {
  if (sigma < kTinySigma) return x < mu ? 0.0 : 1.0;
  return NormalCdf((x - mu) / sigma);
}

double NormalQuantile(double p, double mu, double sigma) {
  return mu + sigma * NormalQuantile(p);
}

double TruncatedNormalQuantile(double p, double mu, double sigma, double lo,
                               double hi) {
  p = Clamp(p, 0.0, 1.0);
  if (sigma < kTinySigma) return Clamp(mu, lo, hi);
  const double ca = NormalCdf((lo - mu) / sigma);
  const double cb = NormalCdf((hi - mu) / sigma);
  const double mass = cb - ca;
  if (mass < kTinySigma) {
    // Essentially no probability mass inside [lo, hi]; degenerate to the
    // nearest endpoint.
    return mu < lo ? lo : hi;
  }
  double q = NormalQuantile(ca + p * mass, mu, sigma);
  return Clamp(q, lo, hi);
}

double TruncatedNormalCdf(double x, double mu, double sigma, double lo,
                          double hi) {
  if (x <= lo) return 0.0;
  if (x >= hi) return 1.0;
  if (sigma < kTinySigma) return x < Clamp(mu, lo, hi) ? 0.0 : 1.0;
  const double ca = NormalCdf((lo - mu) / sigma);
  const double cb = NormalCdf((hi - mu) / sigma);
  const double mass = cb - ca;
  if (mass < kTinySigma) return x < Clamp(mu, lo, hi) ? 0.0 : 1.0;
  return (NormalCdf((x - mu) / sigma) - ca) / mass;
}

double TruncatedNormalMean(double mu, double sigma, double lo, double hi) {
  if (sigma < kTinySigma) return Clamp(mu, lo, hi);
  const double a = (lo - mu) / sigma;
  const double b = (hi - mu) / sigma;
  const double mass = NormalCdf(b) - NormalCdf(a);
  if (mass < kTinySigma) return Clamp(mu, lo, hi);
  return mu + sigma * (NormalPdf(a) - NormalPdf(b)) / mass;
}

double SoftplusInverse(double y) {
  // x = log(exp(y) - 1) = y + log(1 - exp(-y)), stable for large y.
  if (y <= 0.0) return -std::numeric_limits<double>::infinity();
  if (y > 30.0) return y;  // exp(-y) underflows; softplus is identity here.
  return y + std::log(-std::expm1(-y));
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

}  // namespace learnrisk
