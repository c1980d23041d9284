// Copyright 2026 The LearnRisk Authors

#include "classifier/logistic.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/math_util.h"

namespace learnrisk {

LogisticClassifier::LogisticClassifier(LogisticOptions options)
    : options_(options) {}

Status LogisticClassifier::Train(const FeatureMatrix& features,
                                 const std::vector<uint8_t>& labels) {
  if (features.rows() != labels.size()) {
    return Status::InvalidArgument("feature rows != label count");
  }
  if (features.rows() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  const size_t n = features.rows();
  const size_t d = features.cols();

  ColumnMeanStd(features, &feature_mean_, &feature_std_);
  double pos_weight = options_.positive_weight;
  if (pos_weight <= 0.0) {
    size_t n_pos = 0;
    for (uint8_t y : labels) n_pos += y;
    pos_weight = BalancedPositiveWeight(n_pos, n);
  }

  w_.assign(d, 0.0);
  b_ = 0.0;
  std::vector<double> x(d);
  std::vector<double> gw(d);
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    std::fill(gw.begin(), gw.end(), 0.0);
    double gb = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double z = b_;
      for (size_t j = 0; j < d; ++j) {
        x[j] = (features.at(i, j) - feature_mean_[j]) / feature_std_[j];
        z += w_[j] * x[j];
      }
      const double p = Sigmoid(z);
      const double y = labels[i] ? 1.0 : 0.0;
      const double wy = labels[i] ? pos_weight : 1.0;
      const double delta = wy * (p - y);
      for (size_t j = 0; j < d; ++j) gw[j] += delta * x[j];
      gb += delta;
    }
    const double inv_n = 1.0 / static_cast<double>(n);
    for (size_t j = 0; j < d; ++j) {
      w_[j] -= options_.learning_rate *
               (gw[j] * inv_n + options_.l2 * w_[j]);
    }
    b_ -= options_.learning_rate * gb * inv_n;
  }
  return Status::OK();
}

double LogisticClassifier::PredictProba(const double* features,
                                        size_t n) const {
  assert(n == w_.size() && "feature dimension mismatch");
  double z = b_;
  for (size_t j = 0; j < n; ++j) {
    z += w_[j] * (features[j] - feature_mean_[j]) / feature_std_[j];
  }
  return Sigmoid(z);
}

}  // namespace learnrisk
