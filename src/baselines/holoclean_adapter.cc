// Copyright 2026 The LearnRisk Authors

#include "baselines/holoclean_adapter.h"

#include <algorithm>
#include <cmath>

#include "classifier/classifier.h"
#include "common/math_util.h"
#include "common/parallel.h"

namespace learnrisk {

double HoloCleanAdapter::Vote(size_t r, const double* metric_row) const {
  const Rule& rule = rules_[r];
  if (!rule.Matches(metric_row)) return 0.0;
  return rule.label == RuleClass::kMatching ? 1.0 : -1.0;
}

Status HoloCleanAdapter::Fit(std::vector<Rule> labeling_rules,
                             const FeatureMatrix& metric_features,
                             const std::vector<double>& classifier_probs) {
  if (metric_features.rows() != classifier_probs.size()) {
    return Status::InvalidArgument("feature rows != classifier output count");
  }
  rules_ = std::move(labeling_rules);
  weights_.assign(rules_.size(), 0.0);
  bias_ = 0.0;
  if (rules_.empty()) {
    return Status::InvalidArgument("no labeling rules provided");
  }

  // Weak supervision: trusted cells are the confidently-labeled pairs.
  std::vector<size_t> trusted;
  for (size_t i = 0; i < classifier_probs.size(); ++i) {
    if (classifier_probs[i] <= options_.trusted_margin ||
        classifier_probs[i] >= 1.0 - options_.trusted_margin) {
      trusted.push_back(i);
    }
  }
  if (trusted.size() < 10) {
    // Fall back to treating every machine label as weak supervision.
    trusted.resize(classifier_probs.size());
    for (size_t i = 0; i < trusted.size(); ++i) trusted[i] = i;
  }

  // Precompute sparse votes of trusted pairs.
  std::vector<std::vector<std::pair<uint32_t, double>>> votes(trusted.size());
  ParallelFor(trusted.size(), [&](size_t t) {
    const double* row = metric_features.row(trusted[t]);
    for (size_t r = 0; r < rules_.size(); ++r) {
      const double v = Vote(r, row);
      if (v != 0.0) {
        votes[t].push_back({static_cast<uint32_t>(r), v});
      }
    }
  });

  // Class weighting: trusted matches are rare in ER workloads.
  size_t n_pos = 0;
  for (size_t t = 0; t < trusted.size(); ++t) {
    n_pos += classifier_probs[trusted[t]] >= 0.5 ? 1 : 0;
  }
  const double pos_weight = BalancedPositiveWeight(n_pos, trusted.size());

  // Logistic regression on the vote features (full-batch GD).
  std::vector<double> grad(rules_.size());
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad_bias = 0.0;
    for (size_t t = 0; t < trusted.size(); ++t) {
      double z = bias_;
      for (const auto& [r, v] : votes[t]) z += weights_[r] * v;
      const double p = Sigmoid(z);
      const double y = classifier_probs[trusted[t]] >= 0.5 ? 1.0 : 0.0;
      const double wy = y > 0.5 ? pos_weight : 1.0;
      const double delta = wy * (p - y);
      for (const auto& [r, v] : votes[t]) grad[r] += delta * v;
      grad_bias += delta;
    }
    const double inv_n = 1.0 / static_cast<double>(trusted.size());
    for (size_t r = 0; r < rules_.size(); ++r) {
      weights_[r] -= options_.learning_rate *
                     (grad[r] * inv_n + options_.l2 * weights_[r]);
    }
    bias_ -= options_.learning_rate * grad_bias * inv_n;
  }
  return Status::OK();
}

std::vector<double> HoloCleanAdapter::InferMatchProbability(
    const FeatureMatrix& metric_features) const {
  std::vector<double> probs(metric_features.rows(), 0.5);
  ParallelFor(metric_features.rows(), [&](size_t i) {
    double z = bias_;
    const double* row = metric_features.row(i);
    for (size_t r = 0; r < rules_.size(); ++r) {
      z += weights_[r] * Vote(r, row);
    }
    probs[i] = Sigmoid(z);
  });
  return probs;
}

std::vector<double> HoloCleanAdapter::RiskAll(
    const FeatureMatrix& metric_features,
    const std::vector<double>& classifier_probs) const {
  const std::vector<double> inferred = InferMatchProbability(metric_features);
  std::vector<double> risk(inferred.size());
  for (size_t i = 0; i < inferred.size(); ++i) {
    const bool machine_match = classifier_probs[i] >= 0.5;
    risk[i] = machine_match ? 1.0 - inferred[i] : inferred[i];
  }
  return risk;
}

}  // namespace learnrisk
