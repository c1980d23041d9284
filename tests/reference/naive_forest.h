// Copyright 2026 The LearnRisk Authors
// Reference Algorithm 1: the one-sided forest that rescans every node's
// rows with a binary search per (row, metric, class weight), over
// thresholds from std::sort. It shares only the Gini arithmetic
// (WeightedGini, OneSidedGiniSide) with src/; OneSidedForest::Generate,
// which bins each metric once, and OneSidedForest::CandidateThresholds,
// which radix-sorts, must return the same rules and thresholds bit for bit
// (tests/forest_parity_test.cc).

#ifndef LEARNRISK_REFERENCE_NAIVE_FOREST_H_
#define LEARNRISK_REFERENCE_NAIVE_FOREST_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "metrics/metric_suite.h"
#include "rules/one_sided_tree.h"
#include "rules/rule.h"

namespace learnrisk {
namespace reference {

/// \brief Algorithm 1 by rescanning: same options, same validation of the
/// row/label shapes and of lambda's range, same rules.
class OneSidedForestNaive {
 public:
  static Result<std::vector<Rule>> Generate(
      const FeatureMatrix& features, const std::vector<uint8_t>& labels,
      const OneSidedForestOptions& options);

  /// \brief OneSidedForest::CandidateThresholds by std::sort and
  /// std::unique.
  static std::vector<double> CandidateThresholds(const FeatureMatrix& features,
                                                 size_t metric,
                                                 size_t num_thresholds);
};

}  // namespace reference
}  // namespace learnrisk

#endif  // LEARNRISK_REFERENCE_NAIVE_FOREST_H_
