// Copyright 2026 The LearnRisk Authors
// Gradient checks for the reverse-mode autodiff tape: every op is verified
// against central finite differences, plus composite expressions matching
// the risk model's actual computation graph (truncated-normal VaR).

#include "reference/tape.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <tuple>

#include "common/math_util.h"

namespace learnrisk {
namespace {

using UnaryBuilder = std::function<Var(Var)>;

double FiniteDiff(const std::function<double(double)>& f, double x,
                  double h = 1e-6) {
  return (f(x + h) - f(x - h)) / (2.0 * h);
}

// Evaluates builder at x via a fresh tape; returns (value, gradient).
std::pair<double, double> EvalUnary(const UnaryBuilder& builder, double x) {
  Tape tape;
  Var in = tape.Variable(x);
  Var out = builder(in);
  tape.Backward(out);
  return {out.value(), tape.Gradient(in)};
}

struct UnaryCase {
  const char* name;
  UnaryBuilder builder;
  std::vector<double> points;
};

class UnaryGradCheck : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradCheck, MatchesFiniteDifference) {
  const UnaryCase& c = GetParam();
  for (double x : c.points) {
    auto [value, grad] = EvalUnary(c.builder, x);
    auto f = [&](double v) { return EvalUnary(c.builder, v).first; };
    const double expected = FiniteDiff(f, x);
    EXPECT_NEAR(grad, expected, 1e-4 * std::max(1.0, std::fabs(expected)))
        << c.name << " at x=" << x;
    EXPECT_FALSE(std::isnan(value));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, UnaryGradCheck,
    ::testing::Values(
        UnaryCase{"exp", [](Var x) { return Exp(x); }, {-2.0, 0.0, 1.5}},
        UnaryCase{"log", [](Var x) { return Log(x); }, {0.1, 1.0, 5.0}},
        UnaryCase{"sqrt", [](Var x) { return Sqrt(x); }, {0.25, 1.0, 9.0}},
        UnaryCase{"square", [](Var x) { return Square(x); }, {-3.0, 0.5}},
        UnaryCase{"pow_2_5", [](Var x) { return Pow(x, 2.5); }, {0.5, 2.0}},
        UnaryCase{"abs", [](Var x) { return Abs(x); }, {-2.0, 3.0}},
        UnaryCase{"sigmoid", [](Var x) { return SigmoidV(x); },
                  {-3.0, 0.0, 2.0}},
        UnaryCase{"softplus", [](Var x) { return SoftplusV(x); },
                  {-5.0, 0.0, 4.0}},
        UnaryCase{"tanh", [](Var x) { return Tanh(x); }, {-1.0, 0.0, 1.0}},
        UnaryCase{"normal_cdf", [](Var x) { return NormalCdfV(x); },
                  {-2.0, 0.0, 1.0}},
        UnaryCase{"normal_quantile",
                  [](Var x) { return NormalQuantileV(x); },
                  {0.05, 0.5, 0.9, 0.99}},
        UnaryCase{"neg", [](Var x) { return -x; }, {1.0, -2.0}},
        UnaryCase{"affine", [](Var x) { return 3.0 * x - 1.5; }, {0.7}},
        UnaryCase{"reciprocal", [](Var x) { return 1.0 / x; }, {0.5, 2.0}},
        UnaryCase{"clamp_inside",
                  [](Var x) { return ClampV(x, 0.0, 1.0); },
                  {0.3, 0.7}}),
    [](const ::testing::TestParamInfo<UnaryCase>& info) {
      return std::string(info.param.name);
    });

TEST(TapeTest, ClampOutsideHasZeroGradient) {
  auto [v_lo, g_lo] = EvalUnary([](Var x) { return ClampV(x, 0.0, 1.0); },
                                -0.5);
  EXPECT_DOUBLE_EQ(v_lo, 0.0);
  EXPECT_DOUBLE_EQ(g_lo, 0.0);
  auto [v_hi, g_hi] = EvalUnary([](Var x) { return ClampV(x, 0.0, 1.0); },
                                1.5);
  EXPECT_DOUBLE_EQ(v_hi, 1.0);
  EXPECT_DOUBLE_EQ(g_hi, 0.0);
}

TEST(TapeTest, BinaryOpsGradients) {
  Tape tape;
  Var a = tape.Variable(2.0);
  Var b = tape.Variable(3.0);
  Var out = (a * b + a / b) - (a - b);
  tape.Backward(out);
  // d/da = b + 1/b - 1 = 3 + 1/3 - 1; d/db = a - a/b^2 + 1.
  EXPECT_NEAR(tape.Gradient(a), 3.0 + 1.0 / 3.0 - 1.0, 1e-12);
  EXPECT_NEAR(tape.Gradient(b), 2.0 - 2.0 / 9.0 + 1.0, 1e-12);
}

TEST(TapeTest, MaxMinRouteGradients) {
  Tape tape;
  Var a = tape.Variable(2.0);
  Var b = tape.Variable(3.0);
  Var mx = Max(a, b);
  tape.Backward(mx);
  EXPECT_DOUBLE_EQ(tape.Gradient(a), 0.0);
  EXPECT_DOUBLE_EQ(tape.Gradient(b), 1.0);

  tape.ZeroGrad();
  Var mn = Min(a, b);
  tape.Backward(mn);
  EXPECT_DOUBLE_EQ(tape.Gradient(a), 1.0);
  EXPECT_DOUBLE_EQ(tape.Gradient(b), 0.0);
}

TEST(TapeTest, FanOutAccumulatesGradient) {
  Tape tape;
  Var x = tape.Variable(1.5);
  Var out = x * x + x + Exp(x);  // d/dx = 2x + 1 + e^x
  tape.Backward(out);
  EXPECT_NEAR(tape.Gradient(x), 2.0 * 1.5 + 1.0 + std::exp(1.5), 1e-10);
}

TEST(TapeTest, ZeroGradResetsAccumulation) {
  Tape tape;
  Var x = tape.Variable(2.0);
  Var y = Square(x);
  tape.Backward(y);
  EXPECT_DOUBLE_EQ(tape.Gradient(x), 4.0);
  tape.ZeroGrad();
  EXPECT_DOUBLE_EQ(tape.Gradient(x), 0.0);
  tape.Backward(y);
  EXPECT_DOUBLE_EQ(tape.Gradient(x), 4.0);
}

TEST(TapeTest, ClearEmptiesTape) {
  Tape tape;
  (void)tape.Variable(1.0);
  EXPECT_EQ(tape.size(), 1u);
  tape.Clear();
  EXPECT_EQ(tape.size(), 0u);
}

TEST(TapeTest, BackwardIsSelfZeroing) {
  // The historical bug: Backward accumulated `grad += 1.0` on the output
  // without resetting first, so back-to-back calls silently doubled every
  // gradient. The contract is now self-zeroing over the live subrange.
  Tape tape;
  Var x = tape.Variable(2.0);
  Var y = Square(x);
  tape.Backward(y);
  EXPECT_DOUBLE_EQ(tape.Gradient(x), 4.0);
  tape.Backward(y);  // no ZeroGrad in between
  EXPECT_DOUBLE_EQ(tape.Gradient(x), 4.0);
}

TEST(TapeTest, CheckpointRewindRebuildsLossSubgraph) {
  Tape tape;
  Var w = tape.Variable(1.0);
  const size_t mark = tape.Checkpoint();
  EXPECT_EQ(mark, 1u);

  // Epoch 1: record a loss subgraph, backprop.
  Var loss1 = Square(w) + 3.0 * w;
  tape.Backward(loss1);
  EXPECT_DOUBLE_EQ(tape.Gradient(w), 2.0 * 1.0 + 3.0);
  const size_t grown = tape.size();
  EXPECT_GT(grown, mark);

  // Epoch 2: rewind, refresh the parameter leaf, re-record.
  tape.Rewind(mark);
  EXPECT_EQ(tape.size(), mark);
  tape.SetValue(w, 2.5);
  EXPECT_DOUBLE_EQ(w.value(), 2.5);
  Var loss2 = Square(w) + 3.0 * w;
  tape.Backward(loss2);
  EXPECT_DOUBLE_EQ(tape.Gradient(w), 2.0 * 2.5 + 3.0);
}

TEST(TapeTest, DivisionByZeroIsGuarded) {
  // Var / Var with a zero denominator: huge but finite, never NaN.
  {
    Tape tape;
    Var a = tape.Variable(0.0);
    Var b = tape.Variable(0.0);
    Var q = a / b;
    tape.Backward(q);
    EXPECT_FALSE(std::isnan(q.value()));
    EXPECT_FALSE(std::isnan(tape.Gradient(a)));
    EXPECT_FALSE(std::isnan(tape.Gradient(b)));
  }
  // double / Var likewise.
  {
    Tape tape;
    Var b = tape.Variable(0.0);
    Var q = 0.0 / b;
    tape.Backward(q);
    EXPECT_FALSE(std::isnan(q.value()));
    EXPECT_FALSE(std::isnan(tape.Gradient(b)));
  }
  // A downstream softplus of a guarded quotient stays NaN-free end to end.
  {
    Tape tape;
    Var b = tape.Variable(0.0);
    Var loss = SoftplusV(ClampV(1.0 / b, -10.0, 10.0));
    tape.Backward(loss);
    EXPECT_FALSE(std::isnan(loss.value()));
    EXPECT_FALSE(std::isnan(tape.Gradient(b)));
  }
  // Normal denominators are unaffected by the guard.
  {
    Tape tape;
    Var a = tape.Variable(3.0);
    Var b = tape.Variable(2.0);
    Var q = a / b;
    tape.Backward(q);
    EXPECT_DOUBLE_EQ(q.value(), 1.5);
    EXPECT_DOUBLE_EQ(tape.Gradient(a), 0.5);
    EXPECT_DOUBLE_EQ(tape.Gradient(b), -0.75);
  }
}

TEST(TapeTest, ReserveDoesNotDisturbRecording) {
  Tape tape;
  tape.Reserve(1024);
  Var x = tape.Variable(1.0);
  Var y = Exp(x) + x;
  tape.Backward(y);
  EXPECT_NEAR(tape.Gradient(x), std::exp(1.0) + 1.0, 1e-12);
}

TEST(TapeTest, RankNetLossGradientSigns) {
  // loss = softplus(gamma_j - gamma_i): decreasing in gamma_i (mislabeled
  // pair's risk should rise), increasing in gamma_j.
  Tape tape;
  Var gi = tape.Variable(0.4);
  Var gj = tape.Variable(0.6);
  Var loss = SoftplusV(gj - gi);
  tape.Backward(loss);
  EXPECT_LT(tape.Gradient(gi), 0.0);
  EXPECT_GT(tape.Gradient(gj), 0.0);
}

// The full truncated-normal VaR expression used by the risk model, checked
// against finite differences in both mu and sigma.
double VaRValue(double mu, double sigma, double p) {
  Tape tape;
  Var m = tape.Variable(mu);
  Var s = tape.Variable(sigma);
  Var ca = NormalCdfV((0.0 - m) / s);
  Var cb = NormalCdfV((1.0 - m) / s);
  Var u = ca + p * (cb - ca);
  Var q = ClampV(m + s * NormalQuantileV(u), 0.0, 1.0);
  return q.value();
}

TEST(TapeTest, TruncatedNormalVaRGradients) {
  const double p = 0.9;
  for (double mu : {0.2, 0.5, 0.8}) {
    for (double sigma : {0.05, 0.2}) {
      Tape tape;
      Var m = tape.Variable(mu);
      Var s = tape.Variable(sigma);
      Var ca = NormalCdfV((0.0 - m) / s);
      Var cb = NormalCdfV((1.0 - m) / s);
      Var u = ca + p * (cb - ca);
      Var q = ClampV(m + s * NormalQuantileV(u), 0.0, 1.0);
      tape.Backward(q);
      const double dmu = FiniteDiff(
          [&](double v) { return VaRValue(v, sigma, p); }, mu, 1e-6);
      const double dsigma = FiniteDiff(
          [&](double v) { return VaRValue(mu, v, p); }, sigma, 1e-6);
      EXPECT_NEAR(tape.Gradient(m), dmu, 1e-4) << mu << "," << sigma;
      EXPECT_NEAR(tape.Gradient(s), dsigma, 1e-4) << mu << "," << sigma;
      // Sanity: VaR value matches the scalar implementation.
      EXPECT_NEAR(q.value(),
                  TruncatedNormalQuantile(p, mu, sigma, 0.0, 1.0), 1e-9);
    }
  }
}

TEST(TapeTest, VaRIncreasesWithSigmaAtHighConfidence) {
  EXPECT_GT(VaRValue(0.3, 0.3, 0.9), VaRValue(0.3, 0.05, 0.9));
}

}  // namespace
}  // namespace learnrisk
