// Copyright 2026 The LearnRisk Authors
// Abstract ER classifier interface. LearnRisk treats the classifier as a
// black box that labels pairs with an equivalence probability; this interface
// is the seam where the paper plugs in DeepMatcher and we plug in the MLP
// substitute (DESIGN.md §4).

#ifndef LEARNRISK_CLASSIFIER_CLASSIFIER_H_
#define LEARNRISK_CLASSIFIER_CLASSIFIER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "metrics/metric_suite.h"

namespace learnrisk {

/// \brief Binary match/unmatch classifier over per-pair metric vectors.
class BinaryClassifier {
 public:
  virtual ~BinaryClassifier() = default;

  /// \brief Fits on a feature matrix with 0/1 labels (1 = equivalent).
  virtual Status Train(const FeatureMatrix& features,
                       const std::vector<uint8_t>& labels) = 0;

  /// \brief P(match) for one feature row of length `n`.
  virtual double PredictProba(const double* features, size_t n) const = 0;

  /// \brief P(match) for every row.
  std::vector<double> PredictProbaAll(const FeatureMatrix& features) const;

  /// \brief Hard labels at the 0.5 threshold.
  std::vector<uint8_t> PredictAll(const FeatureMatrix& features) const;
};

/// \brief Per-column standardization statistics of `features`: the mean
/// and the population standard deviation, with a standard deviation below
/// 1e-8 replaced by 1.0 so a (near-)constant column is only centered.
void ColumnMeanStd(const FeatureMatrix& features, std::vector<double>* mean,
                   std::vector<double>* std_dev);

/// \brief The balanced positive-class loss weight for `n_pos` positives
/// among `n` rows: n_neg / n_pos clamped to [1, 50], or 1.0 without
/// positives.
double BalancedPositiveWeight(size_t n_pos, size_t n);

/// \brief Factory used by ensembles and active-learning loops to spawn fresh
/// classifiers.
using ClassifierFactory =
    std::function<std::unique_ptr<BinaryClassifier>(uint64_t seed)>;

}  // namespace learnrisk

#endif  // LEARNRISK_CLASSIFIER_CLASSIFIER_H_
