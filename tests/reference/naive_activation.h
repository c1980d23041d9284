// Copyright 2026 The LearnRisk Authors
// Reference rule activation: the naive per-rule Rule::Matches scan over
// every metric row. The compiled columnar plan behind ComputeActivation and
// RiskFeatureSet::ActiveRules must match it bit-for-bit
// (tests/compiled_rules_test.cc, tests/serving_engine_test.cc), and
// bench_serving times it as the naive baseline.

#ifndef LEARNRISK_REFERENCE_NAIVE_ACTIVATION_H_
#define LEARNRISK_REFERENCE_NAIVE_ACTIVATION_H_

#include <cstdint>
#include <vector>

#include "metrics/metric_suite.h"
#include "risk/risk_feature.h"

namespace learnrisk {
namespace reference {

/// \brief Indices of the rules whose condition holds on this metric row,
/// ascending, by testing every rule.
std::vector<uint32_t> ActiveRulesNaive(const RiskFeatureSet& features,
                                       const double* metric_row);

/// \brief ComputeActivation through the naive per-rule scan (chunk-parallel
/// over rows, like the compiled path, so timings compare like with like).
RiskActivation ComputeActivationNaive(
    const RiskFeatureSet& features, const FeatureMatrix& metric_features,
    const std::vector<double>& classifier_probs);

}  // namespace reference
}  // namespace learnrisk

#endif  // LEARNRISK_REFERENCE_NAIVE_ACTIVATION_H_
