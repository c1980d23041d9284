// Copyright 2026 The LearnRisk Authors
// Shared test-model factory. Builds a synthetic RiskModel over
// `num_metrics` feature columns: 1-3 random threshold predicates per rule,
// randomized expectations/support, and raw parameters perturbed away from
// their init values so every transform (softplus weights, bounded RSDs,
// influence function, output RSDs) actually matters when scores are
// compared bit-for-bit. Deterministic in `seed` — the same arguments
// always produce the same model, so expected scores can be precomputed.
//
// Also a raw-parameter reference of the risk kernel: RiskModel's forward
// arithmetic (Distribution, RiskScore, Explain) written directly over
// theta(), phi(), alpha_raw(), beta_raw() and phi_out(), re-deriving every
// transform per call. The model scores from its baked transforms, so a bit-
// for-bit comparison with this reference catches a stale or wrong bake.

#ifndef LEARNRISK_TESTS_TEST_MODELS_H_
#define LEARNRISK_TESTS_TEST_MODELS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/random.h"
#include "reference/naive_activation.h"
#include "risk/risk_feature.h"
#include "risk/risk_model.h"

namespace learnrisk {
namespace testutil {

inline RiskModel MakeModel(uint64_t seed, size_t n_rules,
                           size_t num_metrics) {
  Rng rng(seed);
  std::vector<Rule> rules(n_rules);
  std::vector<double> expectations(n_rules);
  std::vector<size_t> support(n_rules);
  for (size_t j = 0; j < n_rules; ++j) {
    const size_t n_preds = 1 + rng.Index(3);
    for (size_t k = 0; k < n_preds; ++k) {
      Predicate p;
      p.metric = rng.Index(num_metrics);
      p.metric_name = "m" + std::to_string(p.metric);
      p.greater = rng.Bernoulli(0.5);
      p.threshold = rng.Uniform();
      rules[j].predicates.push_back(std::move(p));
    }
    expectations[j] = rng.Uniform(0.1, 0.9);
    support[j] = 10 + rng.Index(100);
  }
  RiskModel model(RiskFeatureSet::FromParts(std::move(rules),
                                            std::move(expectations),
                                            std::move(support)));
  std::vector<double> theta(n_rules);
  std::vector<double> phi(n_rules);
  for (size_t j = 0; j < n_rules; ++j) {
    theta[j] = rng.Normal(0.0, 1.0);
    phi[j] = rng.Normal(0.0, 1.0);
  }
  std::vector<double> phi_out(model.phi_out().size());
  for (double& v : phi_out) v = rng.Normal(0.0, 1.0);
  model.ApplyUpdate(theta, phi, rng.Normal(0.0, 0.5), rng.Normal(0.5, 0.5),
                    phi_out);
  return model;
}

inline double ReferenceOutputRsd(const RiskModel& model, double x) {
  const size_t buckets = model.options().output_buckets;
  const size_t b = std::min(
      static_cast<size_t>(
          std::floor(Clamp(x, 0.0, 1.0) * static_cast<double>(buckets))),
      buckets - 1);
  return model.options().rsd_max * Sigmoid(model.phi_out()[b]);
}

inline double ReferenceOutputWeight(const RiskModel& model, double x) {
  const double z = (x - 0.5) / Softplus(model.alpha_raw());
  return -std::exp(-0.5 * z * z) + Softplus(model.beta_raw()) + 1.0;
}

inline PairDistribution ReferenceDistribution(
    const RiskModel& model, const std::vector<uint32_t>& active, double x) {
  const RiskModelOptions& options = model.options();
  const bool with_output = options.use_classifier_feature || active.empty();
  const double w_out = with_output ? ReferenceOutputWeight(model, x) : 0.0;
  const double mu_out = Clamp(x, 0.0, 1.0);
  const double sigma_out = ReferenceOutputRsd(model, x) * mu_out;
  double weight_sum = w_out;
  double mu_acc = w_out * mu_out;
  double var_acc = w_out * w_out * sigma_out * sigma_out;
  for (uint32_t j : active) {
    const double w = Softplus(model.theta()[j]);
    const double mu = model.features().expectation(j);
    const double sigma = (options.rsd_max * Sigmoid(model.phi()[j])) * mu;
    weight_sum += w;
    mu_acc += w * mu;
    var_acc += w * w * sigma * sigma;
  }
  PairDistribution dist;
  dist.mu = mu_acc / weight_sum;
  dist.sigma = std::sqrt(var_acc) / weight_sum + 1e-6;
  return dist;
}

inline double ReferenceRiskScore(const RiskModel& model,
                                 const std::vector<uint32_t>& active,
                                 double x, uint8_t machine_label) {
  const PairDistribution d = ReferenceDistribution(model, active, x);
  const double theta = model.options().var_confidence;
  switch (model.options().metric) {
    case RiskMetric::kVaR:
      if (machine_label == 0) {
        return TruncatedNormalQuantile(theta, d.mu, d.sigma, 0.0, 1.0);
      }
      return 1.0 -
             TruncatedNormalQuantile(1.0 - theta, d.mu, d.sigma, 0.0, 1.0);
    case RiskMetric::kCVaR: {
      if (machine_label == 0) {
        const double var =
            TruncatedNormalQuantile(theta, d.mu, d.sigma, 0.0, 1.0);
        return TruncatedNormalMean(d.mu, d.sigma, var, 1.0);
      }
      const double var =
          TruncatedNormalQuantile(1.0 - theta, d.mu, d.sigma, 0.0, 1.0);
      return 1.0 - TruncatedNormalMean(d.mu, d.sigma, 0.0, var);
    }
    case RiskMetric::kExpectation: {
      const double mean = TruncatedNormalMean(d.mu, d.sigma, 0.0, 1.0);
      return machine_label == 0 ? mean : 1.0 - mean;
    }
  }
  return 0.0;
}

// Reference risk of every metric row: its active rules from the naive rule
// scan, scored by ReferenceRiskScore with machine label = prob >= 0.5.
inline std::vector<double> ReferenceRiskScores(
    const RiskModel& model, const FeatureMatrix& features,
    const std::vector<double>& probs) {
  std::vector<double> risk(features.rows());
  for (size_t i = 0; i < features.rows(); ++i) {
    risk[i] = ReferenceRiskScore(
        model, reference::ActiveRulesNaive(model.features(), features.row(i)),
        probs[i], probs[i] >= 0.5 ? 1 : 0);
  }
  return risk;
}

inline std::vector<RiskContribution> ReferenceExplain(
    const RiskModel& model, const std::vector<uint32_t>& active, double x,
    size_t top_k) {
  double weight_sum = ReferenceOutputWeight(model, x);
  for (uint32_t j : active) weight_sum += Softplus(model.theta()[j]);
  std::vector<RiskContribution> contributions;
  RiskContribution out;
  out.description = "classifier output p=" + std::to_string(x);
  out.weight = ReferenceOutputWeight(model, x) / weight_sum;
  out.expectation = x;
  out.rsd = ReferenceOutputRsd(model, x);
  contributions.push_back(std::move(out));
  for (uint32_t j : active) {
    RiskContribution c;
    c.description = model.features().rule(j).ToString();
    c.weight = Softplus(model.theta()[j]) / weight_sum;
    c.expectation = model.features().expectation(j);
    c.rsd = model.options().rsd_max * Sigmoid(model.phi()[j]);
    contributions.push_back(std::move(c));
  }
  std::stable_sort(contributions.begin(), contributions.end(),
                   [](const RiskContribution& a, const RiskContribution& b) {
                     return a.weight > b.weight;
                   });
  if (contributions.size() > top_k) contributions.resize(top_k);
  return contributions;
}

}  // namespace testutil
}  // namespace learnrisk

#endif  // LEARNRISK_TESTS_TEST_MODELS_H_
