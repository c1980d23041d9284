// Copyright 2026 The LearnRisk Authors

#include "reference/naive_activation.h"

#include "common/parallel.h"

namespace learnrisk {
namespace reference {

std::vector<uint32_t> ActiveRulesNaive(const RiskFeatureSet& features,
                                       const double* metric_row) {
  std::vector<uint32_t> active;
  for (size_t j = 0; j < features.num_rules(); ++j) {
    if (features.rule(j).Matches(metric_row)) {
      active.push_back(static_cast<uint32_t>(j));
    }
  }
  return active;
}

RiskActivation ComputeActivationNaive(
    const RiskFeatureSet& features, const FeatureMatrix& metric_features,
    const std::vector<double>& classifier_probs) {
  RiskActivation activation;
  const size_t n = metric_features.rows();
  activation.active.resize(n);
  activation.classifier_output = classifier_probs;
  activation.machine_label.resize(n);
  ParallelFor(n, [&](size_t i) {
    activation.active[i] = ActiveRulesNaive(features, metric_features.row(i));
    activation.machine_label[i] = classifier_probs[i] >= 0.5 ? 1 : 0;
  });
  return activation;
}

}  // namespace reference
}  // namespace learnrisk
