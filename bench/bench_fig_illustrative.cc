// Copyright 2026 The LearnRisk Authors
//
// Reproduces the paper's illustrative (non-evaluation) figures as printed
// series: Fig. 2 (ROC curve examples), Fig. 4 (portfolio aggregation of
// feature distributions), Fig. 7 (VaR on a loss distribution) and Fig. 8
// (the classifier-output influence function, alpha = 0.2, beta = 10).

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "common/math_util.h"
#include "common/random.h"
#include "eval/roc.h"

int main() {
  using namespace learnrisk;  // NOLINT
  bench::PrintBanner("Figures 2 / 4 / 7 / 8: illustrative series", "");

  // --- Fig. 2: model A dominates model B; C is the chance diagonal. ---
  std::printf("\nFig. 2 ROC examples (AUROC): ");
  Rng rng(7);
  std::vector<uint8_t> labels(2000);
  std::vector<double> good(2000);
  std::vector<double> weak(2000);
  std::vector<double> chance(2000);
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = rng.Bernoulli(0.3) ? 1 : 0;
    const double mu = labels[i] ? 1.0 : 0.0;
    good[i] = rng.Normal(2.0 * mu, 1.0);
    weak[i] = rng.Normal(0.8 * mu, 1.0);
    chance[i] = rng.Uniform();
  }
  std::printf("A=%.3f  B=%.3f  C=%.3f (expect A > B > C = 0.5)\n",
              Auroc(good, labels), Auroc(weak, labels),
              Auroc(chance, labels));

  // --- Fig. 4: aggregating two feature distributions into a portfolio. ---
  std::printf("\nFig. 4 portfolio aggregation: stock A ~ N(0.90, 0.05^2), "
              "stock B ~ N(0.30, 0.10^2), weights 0.6/0.4\n");
  const double mu = (0.6 * 0.90 + 0.4 * 0.30) / (0.6 + 0.4);
  const double var = (0.36 * 0.0025 + 0.16 * 0.01) / 1.0;
  std::printf("  portfolio C ~ N(%.3f, %.3f^2)\n", mu, std::sqrt(var));

  // --- Fig. 7: VaR of a loss distribution at theta = 0.9. ---
  std::printf("\nFig. 7 VaR visualization: loss ~ TruncNormal(0.60, 0.12; "
              "[0,1]), theta=0.9\n");
  const double var90 = TruncatedNormalQuantile(0.9, 0.60, 0.12, 0.0, 1.0);
  std::printf("  VaR_0.9 = %.3f (tail mass beyond it = %.3f, expect 0.100)\n",
              var90, 1.0 - TruncatedNormalCdf(var90, 0.60, 0.12, 0.0, 1.0));
  std::printf("  paper example shows VaR = 0.757 for its pictured density\n");

  // --- Fig. 8: influence function, alpha = 0.2, beta = 10. ---
  std::printf("\nFig. 8 influence function f(x) = -exp(-(x-0.5)^2/(2*0.2^2)) "
              "+ 10 + 1:\n  x:    ");
  const double alpha = 0.2;
  const double beta = 10.0;
  for (double x = 0.0; x <= 1.001; x += 0.125) std::printf("%7.3f", x);
  std::printf("\n  f(x): ");
  for (double x = 0.0; x <= 1.001; x += 0.125) {
    const double z = (x - 0.5) / alpha;
    std::printf("%7.3f", -std::exp(-0.5 * z * z) + beta + 1.0);
  }
  std::printf("\n  (minimum 10.0 at x=0.5, rising to ~11.0 at the extremes "
              "-- confident outputs weigh more, Sec. 6.2.1)\n");
  return 0;
}
