// Copyright 2026 The LearnRisk Authors
// Unit and property tests for the Gaussian / truncated-Gaussian machinery
// that underpins the risk model (Sec. 4.2, 6.1).

#include "common/math_util.h"

#include <gtest/gtest.h>

#include <cmath>

namespace learnrisk {
namespace {

TEST(NormalTest, PdfAtZero) {
  EXPECT_NEAR(NormalPdf(0.0), 0.3989422804014327, 1e-12);
}

TEST(NormalTest, PdfSymmetric) {
  EXPECT_DOUBLE_EQ(NormalPdf(1.3), NormalPdf(-1.3));
}

TEST(NormalTest, CdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(NormalCdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(NormalCdf(-1.0), 0.15865525393145707, 1e-12);
  EXPECT_NEAR(NormalCdf(1.959963984540054), 0.975, 1e-12);
}

TEST(NormalTest, CdfMonotone) {
  double prev = 0.0;
  for (double x = -8.0; x <= 8.0; x += 0.25) {
    const double c = NormalCdf(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(NormalTest, QuantileKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.9), 1.2815515655446004, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959963984540054, 1e-9);
}

TEST(NormalTest, QuantileInfinitiesAtBounds) {
  EXPECT_TRUE(std::isinf(NormalQuantile(0.0)));
  EXPECT_TRUE(std::isinf(NormalQuantile(1.0)));
  EXPECT_LT(NormalQuantile(0.0), 0.0);
  EXPECT_GT(NormalQuantile(1.0), 0.0);
}

// Property: Phi(Phi^{-1}(p)) == p across many quantile levels.
class QuantileRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(QuantileRoundTrip, CdfInvertsQuantile) {
  const double p = GetParam();
  EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sweep, QuantileRoundTrip,
                         ::testing::Values(1e-10, 1e-6, 1e-3, 0.01, 0.05, 0.1,
                                           0.25, 0.5, 0.75, 0.9, 0.95, 0.99,
                                           0.999, 1.0 - 1e-6, 1.0 - 1e-10));

TEST(NormalTest, ScaledCdfAndQuantile) {
  EXPECT_NEAR(NormalCdf(3.0, 3.0, 2.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalQuantile(0.5, 3.0, 2.0), 3.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.8413447460685429, 3.0, 2.0), 5.0, 1e-6);
}

TEST(NormalTest, DegenerateSigmaCdfIsStep) {
  EXPECT_EQ(NormalCdf(0.9, 1.0, 0.0), 0.0);
  EXPECT_EQ(NormalCdf(1.1, 1.0, 0.0), 1.0);
}

TEST(TruncatedNormalTest, MedianInsideBounds) {
  const double q = TruncatedNormalQuantile(0.5, 0.5, 0.1, 0.0, 1.0);
  EXPECT_NEAR(q, 0.5, 1e-9);
}

TEST(TruncatedNormalTest, QuantileRespectsBounds) {
  for (double p : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    const double q = TruncatedNormalQuantile(p, 0.9, 0.5, 0.0, 1.0);
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
  }
}

TEST(TruncatedNormalTest, QuantileMonotoneInP) {
  double prev = -1.0;
  for (double p = 0.0; p <= 1.0; p += 0.05) {
    const double q = TruncatedNormalQuantile(p, 0.3, 0.2, 0.0, 1.0);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST(TruncatedNormalTest, QuantileMonotoneInMu) {
  double prev = -1.0;
  for (double mu = 0.1; mu <= 0.9; mu += 0.1) {
    const double q = TruncatedNormalQuantile(0.9, mu, 0.2, 0.0, 1.0);
    EXPECT_GE(q, prev);
    prev = q;
  }
}

TEST(TruncatedNormalTest, UpperQuantileGrowsWithSigma) {
  // More fluctuation -> larger 90%-quantile (the VaR effect, Sec. 4.2).
  const double lo = TruncatedNormalQuantile(0.9, 0.3, 0.01, 0.0, 1.0);
  const double hi = TruncatedNormalQuantile(0.9, 0.3, 0.3, 0.0, 1.0);
  EXPECT_GT(hi, lo);
}

TEST(TruncatedNormalTest, DegenerateSigmaReturnsClampedMu) {
  EXPECT_DOUBLE_EQ(TruncatedNormalQuantile(0.9, 0.4, 0.0, 0.0, 1.0), 0.4);
  EXPECT_DOUBLE_EQ(TruncatedNormalQuantile(0.9, 1.7, 0.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(TruncatedNormalQuantile(0.9, -0.5, 0.0, 0.0, 1.0), 0.0);
}

TEST(TruncatedNormalTest, MassOutsideBoundsDegeneratesToEndpoint) {
  // mu far above the interval with tiny sigma: all mass beyond hi.
  EXPECT_DOUBLE_EQ(TruncatedNormalQuantile(0.5, 50.0, 0.001, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(TruncatedNormalQuantile(0.5, -50.0, 0.001, 0.0, 1.0), 0.0);
}

TEST(TruncatedNormalTest, CdfQuantileRoundTrip) {
  for (double p : {0.05, 0.3, 0.5, 0.7, 0.95}) {
    const double q = TruncatedNormalQuantile(p, 0.6, 0.25, 0.0, 1.0);
    EXPECT_NEAR(TruncatedNormalCdf(q, 0.6, 0.25, 0.0, 1.0), p, 1e-9);
  }
}

TEST(TruncatedNormalTest, CdfBoundsAreZeroOne) {
  EXPECT_EQ(TruncatedNormalCdf(-0.1, 0.5, 0.2, 0.0, 1.0), 0.0);
  EXPECT_EQ(TruncatedNormalCdf(1.1, 0.5, 0.2, 0.0, 1.0), 1.0);
}

TEST(TruncatedNormalTest, MeanCenteredWhenSymmetric) {
  EXPECT_NEAR(TruncatedNormalMean(0.5, 0.2, 0.0, 1.0), 0.5, 1e-12);
}

TEST(TruncatedNormalTest, MeanPulledInsideFromBoundaryMu) {
  // mu at the upper bound: truncation pulls the mean below mu.
  EXPECT_LT(TruncatedNormalMean(1.0, 0.3, 0.0, 1.0), 1.0);
  EXPECT_GT(TruncatedNormalMean(0.0, 0.3, 0.0, 1.0), 0.0);
}

TEST(SigmoidTest, KnownValues) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(2.0), 0.8807970779778823, 1e-12);
  EXPECT_NEAR(Sigmoid(-2.0), 1.0 - 0.8807970779778823, 1e-12);
}

TEST(SigmoidTest, ExtremeInputsAreStable) {
  EXPECT_NEAR(Sigmoid(1000.0), 1.0, 1e-15);
  EXPECT_NEAR(Sigmoid(-1000.0), 0.0, 1e-15);
  EXPECT_FALSE(std::isnan(Sigmoid(-1e308)));
}

TEST(SoftplusTest, KnownValuesAndStability) {
  EXPECT_NEAR(Softplus(0.0), std::log(2.0), 1e-12);
  EXPECT_NEAR(Softplus(100.0), 100.0, 1e-12);
  EXPECT_NEAR(Softplus(-100.0), 0.0, 1e-12);
  EXPECT_GE(Softplus(-1e6), 0.0);
}

class SoftplusInverseRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(SoftplusInverseRoundTrip, Inverts) {
  const double y = GetParam();
  EXPECT_NEAR(Softplus(SoftplusInverse(y)), y, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SoftplusInverseRoundTrip,
                         ::testing::Values(0.01, 0.1, 0.5, 0.6931, 1.0, 2.0,
                                           5.0, 10.0, 40.0));

TEST(ClampTest, Basics) {
  EXPECT_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_EQ(Clamp(-1.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(Clamp(2.0, 0.0, 1.0), 1.0);
}

TEST(StatsTest, Mean) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
}

TEST(StatsTest, DegenerateInputs) {
  EXPECT_EQ(Mean({}), 0.0);
}

}  // namespace
}  // namespace learnrisk
