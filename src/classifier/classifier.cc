// Copyright 2026 The LearnRisk Authors

#include "classifier/classifier.h"

#include <algorithm>
#include <cmath>

namespace learnrisk {

void ColumnMeanStd(const FeatureMatrix& features, std::vector<double>* mean,
                   std::vector<double>* std_dev) {
  const size_t n = features.rows();
  const size_t d = features.cols();
  mean->assign(d, 0.0);
  std_dev->assign(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) (*mean)[j] += features.at(i, j);
  }
  for (size_t j = 0; j < d; ++j) (*mean)[j] /= static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      const double delta = features.at(i, j) - (*mean)[j];
      (*std_dev)[j] += delta * delta;
    }
  }
  for (size_t j = 0; j < d; ++j) {
    (*std_dev)[j] = std::sqrt((*std_dev)[j] / static_cast<double>(n));
    if ((*std_dev)[j] < 1e-8) (*std_dev)[j] = 1.0;
  }
}

double BalancedPositiveWeight(size_t n_pos, size_t n) {
  if (n_pos == 0) return 1.0;
  const double ratio =
      static_cast<double>(n - n_pos) / static_cast<double>(n_pos);
  return std::min(std::max(1.0, ratio), 50.0);
}

std::vector<double> BinaryClassifier::PredictProbaAll(
    const FeatureMatrix& features) const {
  std::vector<double> probs(features.rows());
  for (size_t i = 0; i < features.rows(); ++i) {
    probs[i] = PredictProba(features.row(i), features.cols());
  }
  return probs;
}

std::vector<uint8_t> BinaryClassifier::PredictAll(
    const FeatureMatrix& features) const {
  std::vector<uint8_t> labels(features.rows());
  for (size_t i = 0; i < features.rows(); ++i) {
    labels[i] =
        PredictProba(features.row(i), features.cols()) >= 0.5 ? 1 : 0;
  }
  return labels;
}

}  // namespace learnrisk
