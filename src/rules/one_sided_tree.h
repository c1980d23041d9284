// Copyright 2026 The LearnRisk Authors
// One-sided decision forest: the paper's risk-feature generator
// (Sec. 5.2, Algorithm 1). Each partition minimizes the one-sided Gini index
//
//   G^(D, o) = min( lambda/|D_L| + (1-lambda) G(D_L),
//                   lambda/|D_R| + (1-lambda) G(D_R) )           (Eq. 7)
//
// so every split peels off one highly pure subset regardless of the other
// side's purity; recursion continues into the impurer side. Growing with a
// large matching-class weight surfaces matching rules despite ER's class
// imbalance; emitted leaves are filtered by *unweighted* purity. Every leaf
// with impurity <= tau becomes one interpretable rule (risk feature).

#ifndef LEARNRISK_RULES_ONE_SIDED_TREE_H_
#define LEARNRISK_RULES_ONE_SIDED_TREE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "rules/rule.h"

namespace learnrisk {

/// \brief Parameters of Algorithm 1 (paper defaults in comments).
struct OneSidedForestOptions {
  /// Size-vs-impurity weight of Eq. 7 ("we suggest ... low, e.g. 0.2").
  double lambda = 0.2;
  /// Leaf acceptance threshold tau on unweighted Gini impurity.
  double impurity_threshold = 0.1;
  /// Maximum tree depth h ("usually set to a small value, h <= 4").
  size_t max_depth = 4;
  /// Minimum subset size ("lower threshold on the sheer size ... e.g. 5").
  size_t min_leaf_size = 5;
  /// Class weight on matches while growing matching rules ("e.g. 1000").
  double match_class_weight = 1000.0;
  /// Candidate split thresholds per metric (quantile grid).
  size_t num_thresholds = 32;
  /// Root/internal fan-out: the paper enumerates a tree per (metric, weight)
  /// choice at every level, a (2m)^h blow-up; we expand the `beam_width`
  /// best-scoring splits per node, which preserves the extracted rule set in
  /// practice at laptop cost (DESIGN.md §6).
  size_t beam_width = 6;
  /// Safety cap on total node expansions.
  size_t max_expansions = 20000;
};

/// \brief One-sided forest construction: returns the deduplicated rule set.
class OneSidedForest {
 public:
  /// \brief Runs Algorithm 1 on a metric feature matrix with ground-truth
  /// labels (1 = match). `metric_names` label the predicates (use
  /// MetricSuite::MetricNames()). InvalidArgument for a label count other
  /// than the row count, no rows, lambda outside [0, 1] or NaN, and a
  /// match_class_weight that is NaN, infinite or negative.
  static Result<std::vector<Rule>> Generate(
      const FeatureMatrix& features, const std::vector<uint8_t>& labels,
      const OneSidedForestOptions& options);

  /// \brief Candidate thresholds for one metric column: midpoints of a
  /// quantile grid over the observed values (exposed for testing).
  static std::vector<double> CandidateThresholds(const FeatureMatrix& features,
                                                 size_t metric,
                                                 size_t num_thresholds);
};

/// \brief Weighted Gini impurity of a subset with `matches` matches and
/// `unmatches` unmatches, counting each match `match_weight` times (Eq. 6).
double WeightedGini(double matches, double unmatches, double match_weight);

/// \brief One side of Eq. 7: lambda/|D| + (1-lambda) G(D).
double OneSidedGiniSide(double size, double gini, double lambda);

}  // namespace learnrisk

#endif  // LEARNRISK_RULES_ONE_SIDED_TREE_H_
