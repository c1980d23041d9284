// Copyright 2026 The LearnRisk Authors

#include "classifier/mlp.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/math_util.h"

namespace learnrisk {
namespace {

constexpr double kAdamBeta1 = 0.9;
constexpr double kAdamBeta2 = 0.999;
constexpr double kAdamEps = 1e-8;

}  // namespace

MlpClassifier::MlpClassifier(MlpOptions options)
    : options_(std::move(options)) {}

void MlpClassifier::InitLayers(size_t input_dim, Rng* rng) {
  layers_.clear();
  adam_step_ = 0;
  std::vector<size_t> dims;
  dims.push_back(input_dim);
  for (size_t h : options_.hidden) dims.push_back(h);
  dims.push_back(1);
  for (size_t l = 0; l + 1 < dims.size(); ++l) {
    Layer layer;
    layer.in = dims[l];
    layer.out = dims[l + 1];
    layer.w.resize(layer.in * layer.out);
    layer.b.assign(layer.out, 0.0);
    // He initialization for the ReLU stack.
    const double scale = std::sqrt(2.0 / static_cast<double>(layer.in));
    for (double& w : layer.w) w = rng->Normal() * scale;
    layer.mw.assign(layer.w.size(), 0.0);
    layer.vw.assign(layer.w.size(), 0.0);
    layer.mb.assign(layer.b.size(), 0.0);
    layer.vb.assign(layer.b.size(), 0.0);
    layers_.push_back(std::move(layer));
  }
}

double MlpClassifier::Forward(const double* x,
                              std::vector<std::vector<double>>* acts) const {
  std::vector<double> cur(feature_mean_.size());
  for (size_t i = 0; i < cur.size(); ++i) {
    cur[i] = (x[i] - feature_mean_[i]) / feature_std_[i];
  }
  if (acts != nullptr) acts->push_back(cur);
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    std::vector<double> next(layer.out, 0.0);
    for (size_t o = 0; o < layer.out; ++o) {
      double z = layer.b[o];
      const double* wrow = layer.w.data() + o * layer.in;
      for (size_t i = 0; i < layer.in; ++i) z += wrow[i] * cur[i];
      const bool is_output = l + 1 == layers_.size();
      next[o] = is_output ? z : std::max(z, 0.0);
    }
    cur = std::move(next);
    if (acts != nullptr) acts->push_back(cur);
  }
  return Sigmoid(cur[0]);
}

Status MlpClassifier::Train(const FeatureMatrix& features,
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

  Rng rng(options_.seed);
  InitLayers(d, &rng);

  // Gradient accumulators mirroring the layer parameters.
  std::vector<std::vector<double>> gw(layers_.size());
  std::vector<std::vector<double>> gb(layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    gw[l].assign(layers_[l].w.size(), 0.0);
    gb[l].assign(layers_[l].b.size(), 0.0);
  }

  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;

  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    size_t batch_start = 0;
    while (batch_start < n) {
      const size_t batch_end =
          std::min(batch_start + options_.batch_size, n);
      const double batch_n = static_cast<double>(batch_end - batch_start);
      for (auto& g : gw) std::fill(g.begin(), g.end(), 0.0);
      for (auto& g : gb) std::fill(g.begin(), g.end(), 0.0);

      for (size_t bi = batch_start; bi < batch_end; ++bi) {
        const size_t idx = order[bi];
        std::vector<std::vector<double>> acts;
        const double p = Forward(features.row(idx), &acts);
        const double y = labels[idx] ? 1.0 : 0.0;
        const double wy = labels[idx] ? pos_weight : 1.0;
        epoch_loss += -wy * (y * std::log(std::max(p, 1e-12)) +
                             (1.0 - y) * std::log(std::max(1.0 - p, 1e-12)));

        // delta at the output pre-activation.
        std::vector<double> delta = {wy * (p - y)};
        for (size_t l = layers_.size(); l-- > 0;) {
          const Layer& layer = layers_[l];
          const std::vector<double>& input = acts[l];
          for (size_t o = 0; o < layer.out; ++o) {
            gb[l][o] += delta[o];
            double* grow = gw[l].data() + o * layer.in;
            for (size_t i = 0; i < layer.in; ++i) {
              grow[i] += delta[o] * input[i];
            }
          }
          if (l == 0) break;
          std::vector<double> prev_delta(layer.in, 0.0);
          for (size_t i = 0; i < layer.in; ++i) {
            if (acts[l][i] <= 0.0) continue;  // ReLU gate of layer l-1 output
            double g = 0.0;
            for (size_t o = 0; o < layer.out; ++o) {
              g += layers_[l].w[o * layer.in + i] * delta[o];
            }
            prev_delta[i] = g;
          }
          delta = std::move(prev_delta);
        }
      }

      // One Adam step on the averaged batch gradient (+ L2).
      ++adam_step_;
      const double t = static_cast<double>(adam_step_);
      const double bias1 = 1.0 - std::pow(kAdamBeta1, t);
      const double bias2 = 1.0 - std::pow(kAdamBeta2, t);
      for (size_t l = 0; l < layers_.size(); ++l) {
        Layer& layer = layers_[l];
        for (size_t k = 0; k < layer.w.size(); ++k) {
          double g = gw[l][k] / batch_n + options_.l2 * layer.w[k];
          layer.mw[k] = kAdamBeta1 * layer.mw[k] + (1.0 - kAdamBeta1) * g;
          layer.vw[k] = kAdamBeta2 * layer.vw[k] + (1.0 - kAdamBeta2) * g * g;
          layer.w[k] -= options_.learning_rate * (layer.mw[k] / bias1) /
                        (std::sqrt(layer.vw[k] / bias2) + kAdamEps);
        }
        for (size_t k = 0; k < layer.b.size(); ++k) {
          double g = gb[l][k] / batch_n;
          layer.mb[k] = kAdamBeta1 * layer.mb[k] + (1.0 - kAdamBeta1) * g;
          layer.vb[k] = kAdamBeta2 * layer.vb[k] + (1.0 - kAdamBeta2) * g * g;
          layer.b[k] -= options_.learning_rate * (layer.mb[k] / bias1) /
                        (std::sqrt(layer.vb[k] / bias2) + kAdamEps);
        }
      }
      batch_start = batch_end;
    }
    final_loss_ = epoch_loss / static_cast<double>(n);
  }
  return Status::OK();
}

double MlpClassifier::PredictProba(const double* features, size_t n) const {
  assert(n == feature_mean_.size() && "feature dimension mismatch");
  (void)n;
  return Forward(features, nullptr);
}

}  // namespace learnrisk
