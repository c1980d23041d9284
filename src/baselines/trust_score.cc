// Copyright 2026 The LearnRisk Authors

#include "baselines/trust_score.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "classifier/classifier.h"
#include "common/parallel.h"

namespace learnrisk {
namespace {

double SquaredDistance(const double* a, const double* b, size_t d) {
  double s = 0.0;
  for (size_t i = 0; i < d; ++i) {
    const double diff = a[i] - b[i];
    s += diff * diff;
  }
  return s;
}

}  // namespace

Status TrustScore::Fit(const FeatureMatrix& train_features,
                       const std::vector<uint8_t>& train_labels) {
  if (train_features.rows() != train_labels.size()) {
    return Status::InvalidArgument("feature rows != label count");
  }
  if (train_features.rows() == 0) {
    return Status::InvalidArgument("empty training set");
  }
  dim_ = train_features.cols();
  const size_t n = train_features.rows();

  ColumnMeanStd(train_features, &mean_, &std_);

  // Split standardized points by class.
  std::vector<std::vector<double>> points[2];
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> p(dim_);
    StandardizePoint(train_features.row(i), p.data());
    points[train_labels[i] ? 1 : 0].push_back(std::move(p));
  }

  // alpha-filter each class: drop the fraction with the largest k-NN radius.
  for (int c = 0; c < 2; ++c) {
    auto& cls = points[c];
    std::vector<double>* out = c == 1 ? &class1_ : &class0_;
    out->clear();
    if (cls.empty()) continue;
    const size_t k = std::min(options_.k_density, cls.size() - 1);
    std::vector<std::pair<double, size_t>> radius(cls.size());
    if (k == 0) {
      for (size_t i = 0; i < cls.size(); ++i) radius[i] = {0.0, i};
    } else {
      ParallelFor(cls.size(), [&](size_t i) {
        std::vector<double> dists;
        dists.reserve(cls.size() - 1);
        for (size_t j = 0; j < cls.size(); ++j) {
          if (j == i) continue;
          dists.push_back(
              SquaredDistance(cls[i].data(), cls[j].data(), dim_));
        }
        std::nth_element(dists.begin(), dists.begin() + (k - 1), dists.end());
        radius[i] = {dists[k - 1], i};
      });
    }
    std::sort(radius.begin(), radius.end());
    const size_t keep = std::max<size_t>(
        1, static_cast<size_t>(std::llround(
               (1.0 - options_.alpha) * static_cast<double>(cls.size()))));
    out->reserve(keep * dim_);
    for (size_t i = 0; i < keep; ++i) {
      const auto& p = cls[radius[i].second];
      out->insert(out->end(), p.begin(), p.end());
    }
  }
  if (class0_.empty() || class1_.empty()) {
    return Status::FailedPrecondition(
        "TrustScore requires training examples of both classes");
  }
  return Status::OK();
}

void TrustScore::StandardizePoint(const double* in, double* out) const {
  for (size_t j = 0; j < dim_; ++j) {
    out[j] = (in[j] - mean_[j]) / std_[j];
  }
}

double TrustScore::NearestDistance(const std::vector<double>& set,
                                   const double* point) const {
  double best = std::numeric_limits<double>::infinity();
  const size_t count = set.size() / dim_;
  for (size_t i = 0; i < count; ++i) {
    best = std::min(best, SquaredDistance(set.data() + i * dim_, point, dim_));
  }
  return std::sqrt(best);
}

double TrustScore::Risk(const double* features, uint8_t predicted_label) const {
  std::vector<double> p(dim_);
  StandardizePoint(features, p.data());
  const std::vector<double>& same = predicted_label ? class1_ : class0_;
  const std::vector<double>& other = predicted_label ? class0_ : class1_;
  const double rho_y = NearestDistance(same, p.data());
  const double rho_n = NearestDistance(other, p.data());
  // Inverse trust: distance to the predicted class over distance to the
  // nearest other class; small epsilon guards coincident points.
  return (rho_y + 1e-12) / (rho_n + 1e-12);
}

std::vector<double> TrustScore::RiskAll(
    const FeatureMatrix& features,
    const std::vector<uint8_t>& machine_labels) const {
  std::vector<double> risk(features.rows());
  ParallelFor(features.rows(), [&](size_t i) {
    risk[i] = Risk(features.row(i), machine_labels[i]);
  });
  return risk;
}

}  // namespace learnrisk
