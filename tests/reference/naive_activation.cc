// Copyright 2026 The LearnRisk Authors

#include "reference/naive_activation.h"

#include "common/parallel.h"

namespace learnrisk {
namespace reference {

RiskActivation ComputeActivationNaive(
    const RiskFeatureSet& features, const FeatureMatrix& metric_features,
    const std::vector<double>& classifier_probs) {
  RiskActivation activation;
  const size_t n = metric_features.rows();
  activation.active.resize(n);
  activation.classifier_output = classifier_probs;
  activation.machine_label.resize(n);
  ParallelFor(n, [&](size_t i) {
    activation.active[i] = features.ActiveRules(metric_features.row(i));
    activation.machine_label[i] = classifier_probs[i] >= 0.5 ? 1 : 0;
  });
  return activation;
}

}  // namespace reference
}  // namespace learnrisk
