// Copyright 2026 The LearnRisk Authors

#include "risk/trainer.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/timer.h"

namespace learnrisk {
namespace {

constexpr double kAdamBeta1 = 0.9;
constexpr double kAdamBeta2 = 0.999;
constexpr double kAdamEps = 1e-8;

/// Adam state for one flat parameter vector.
struct AdamState {
  std::vector<double> m;
  std::vector<double> v;
};

void AdamStep(std::vector<double>* params, const std::vector<double>& grads,
              AdamState* state, double lr, double bias1, double bias2) {
  for (size_t i = 0; i < params->size(); ++i) {
    state->m[i] = kAdamBeta1 * state->m[i] + (1.0 - kAdamBeta1) * grads[i];
    state->v[i] =
        kAdamBeta2 * state->v[i] + (1.0 - kAdamBeta2) * grads[i] * grads[i];
    (*params)[i] -= lr * (state->m[i] / bias1) /
                    (std::sqrt(state->v[i] / bias2) + kAdamEps);
  }
}

void GdStep(std::vector<double>* params, const std::vector<double>& grads,
            double lr) {
  for (size_t i = 0; i < params->size(); ++i) {
    (*params)[i] -= lr * grads[i];
  }
}

/// One epoch's sampled rank pairs. `indices` lists the global activation
/// indices to score (the mislabeled block first, then the correct block);
/// `pairs` holds (mislabeled, correct) positions into that list. The tape
/// reference trainer (tests/reference/tape_risk.cc) carries a copy of this
/// sampling, so seeded runs of the two are comparable.
struct EpochSample {
  std::vector<size_t> indices;
  size_t num_mis = 0;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
};

/// Bounded index draw via Lemire's multiply-shift reduction straight off the
/// 64-bit engine — an order of magnitude cheaper than constructing a
/// uniform_int_distribution per draw, and the epoch loop draws tens of
/// thousands of these. The modulo bias is < n / 2^64, far below sampling
/// noise.
size_t FastIndex(Rng* rng, size_t n) {
  const unsigned __int128 wide =
      static_cast<unsigned __int128>(rng->engine()()) * n;
  return static_cast<size_t>(wide >> 64);
}

/// Partial Fisher-Yates: randomizes the first `k` slots of `pool` (k draws
/// instead of a full shuffle of the pool). Starting from the previous
/// epoch's permutation is fine — any starting order yields uniform
/// k-subsets.
void SampleFront(std::vector<size_t>* pool, size_t k, Rng* rng) {
  const size_t n = pool->size();
  for (size_t i = 0; i < k; ++i) {
    std::swap((*pool)[i], (*pool)[i + FastIndex(rng, n - i)]);
  }
}

/// Draws one epoch's scored indices and rank pairs into `sample`, reusing
/// its buffers. `mis_pool`/`cor_pool` persist across epochs as sampling
/// scratch.
void DrawEpochSample(std::vector<size_t>* mis_pool,
                     std::vector<size_t>* cor_pool,
                     const RiskTrainerOptions& options, Rng* rng,
                     EpochSample* sample) {
  const size_t num_mis =
      std::min(mis_pool->size(), options.max_mislabeled_per_epoch);
  const size_t num_cor =
      std::min(cor_pool->size(), options.max_correct_per_epoch);
  if (num_mis < mis_pool->size()) SampleFront(mis_pool, num_mis, rng);
  if (num_cor < cor_pool->size()) SampleFront(cor_pool, num_cor, rng);

  sample->num_mis = num_mis;
  sample->indices.clear();
  sample->indices.insert(sample->indices.end(), mis_pool->begin(),
                         mis_pool->begin() + static_cast<long>(num_mis));
  sample->indices.insert(sample->indices.end(), cor_pool->begin(),
                         cor_pool->begin() + static_cast<long>(num_cor));

  sample->pairs.clear();
  const size_t all_pairs = num_mis * num_cor;
  if (all_pairs <= options.max_rank_pairs) {
    sample->pairs.reserve(all_pairs);
    for (size_t a = 0; a < num_mis; ++a) {
      for (size_t b = 0; b < num_cor; ++b) {
        sample->pairs.emplace_back(static_cast<uint32_t>(a),
                                   static_cast<uint32_t>(num_mis + b));
      }
    }
  } else {
    sample->pairs.reserve(options.max_rank_pairs);
    for (size_t k = 0; k < options.max_rank_pairs; ++k) {
      const size_t a = FastIndex(rng, num_mis);
      const size_t b = FastIndex(rng, num_cor);
      sample->pairs.emplace_back(static_cast<uint32_t>(a),
                                 static_cast<uint32_t>(num_mis + b));
    }
  }
}

/// Flat parameter vector <-> model, using RiskModel's flat layout.
std::vector<double> GatherParams(const RiskModel& model) {
  const size_t num_rules = model.num_rules();
  std::vector<double> params(model.num_params());
  std::copy(model.theta().begin(), model.theta().end(), params.begin());
  std::copy(model.phi().begin(), model.phi().end(),
            params.begin() + static_cast<long>(num_rules));
  params[model.alpha_offset()] = model.alpha_raw();
  params[model.beta_offset()] = model.beta_raw();
  std::copy(model.phi_out().begin(), model.phi_out().end(),
            params.begin() + static_cast<long>(model.phi_out_offset()));
  return params;
}

void ScatterParams(const std::vector<double>& params, RiskModel* model) {
  const size_t num_rules = model->num_rules();
  std::vector<double> theta(params.begin(),
                            params.begin() + static_cast<long>(num_rules));
  std::vector<double> phi(
      params.begin() + static_cast<long>(num_rules),
      params.begin() + static_cast<long>(2 * num_rules));
  std::vector<double> phi_out(
      params.begin() + static_cast<long>(model->phi_out_offset()),
      params.end());
  model->ApplyUpdate(theta, phi, params[model->alpha_offset()],
                     params[model->beta_offset()], phi_out);
}

/// One epoch: one batched forward/Jacobian pass, the rank loss gradient in
/// closed form, then a Jacobian-transpose multiply.
double FastEpoch(RiskModel* model, const RiskActivation& data,
                 const EpochSample& sample, const RiskTrainerOptions& options,
                 RiskModel::BatchScore* batch, std::vector<double>* coef,
                 std::vector<double>* grad) {
  model->RiskScoreBatch(data, sample.indices, batch, options.num_threads);

  // Rank loss (Eq. 15): mean softplus(gamma_cor - gamma_mis), summed in the
  // same pair order as the tape reference so the values agree bit-for-bit.
  // Softplus and its sigmoid derivative share one exp(-|t|) (the same
  // branches math_util takes, so the loss stays bit-identical).
  const double n_pairs = static_cast<double>(sample.pairs.size());
  coef->assign(sample.indices.size(), 0.0);
  double loss = 0.0;
  const double inv_pairs = 1.0 / n_pairs;
  for (const auto& [a, b] : sample.pairs) {
    const double t = batch->value[b] - batch->value[a];
    const double e = std::exp(-std::fabs(t));
    loss = loss + (std::max(t, 0.0) + std::log1p(e));
    // dL/dgamma: each pair adds sigmoid(t)/n to the correct side and
    // subtracts it from the mislabeled side. The select compiles to a cmov
    // (sign of t is data-dependent and unpredictable); gradient-path
    // arithmetic, so the single reciprocal is fine.
    const double inv = 1.0 / (1.0 + e);
    const double g = (t >= 0.0 ? inv : 1.0 - inv) * inv_pairs;
    (*coef)[b] += g;
    (*coef)[a] -= g;
  }
  loss = loss / n_pairs;

  // Full parameter gradient: a Jacobian-transpose multiply over the CSR
  // sparsity pattern — each row touches its active rules (theta and phi),
  // alpha/beta, and its output bucket.
  const size_t num_rules = model->num_rules();
  const size_t alpha = model->alpha_offset();
  const size_t phi_out = model->phi_out_offset();
  grad->assign(batch->num_params, 0.0);
  for (size_t k = 0; k < sample.indices.size(); ++k) {
    const double c = (*coef)[k];
    if (c == 0.0) continue;
    for (size_t e = batch->offset[k]; e < batch->offset[k + 1]; ++e) {
      (*grad)[batch->rule[e]] += c * batch->dtheta[e];
      (*grad)[num_rules + batch->rule[e]] += c * batch->dphi[e];
    }
    (*grad)[alpha] += c * batch->dalpha[k];
    (*grad)[alpha + 1] += c * batch->dbeta[k];
    (*grad)[phi_out + batch->bucket[k]] += c * batch->dbucket[k];
  }

  // L1 + L2 on the effective rule weights, in closed form. The tape
  // reference's Abs sub-gradient is 0 at exactly 0; softplus weights are
  // positive, so the sign term is 1 whenever the weight hasn't underflowed.
  if (options.l1 > 0.0 || options.l2 > 0.0) {
    for (size_t j = 0; j < model->num_rules(); ++j) {
      const double theta_j = model->theta()[j];
      const double w = Softplus(theta_j);
      const double sign = w > 0.0 ? 1.0 : 0.0;
      (*grad)[j] +=
          (options.l1 * sign + options.l2 * 2.0 * w) * Sigmoid(theta_j);
    }
  }
  return loss;
}

}  // namespace

Status RiskTrainer::Train(RiskModel* model, const RiskActivation& data,
                          const std::vector<uint8_t>& mislabeled) {
  if (data.size() != mislabeled.size()) {
    return Status::InvalidArgument(
        "activation size != mislabel flag count");
  }
  if (options_.max_rank_pairs == 0 || options_.max_mislabeled_per_epoch == 0 ||
      options_.max_correct_per_epoch == 0) {
    // An empty epoch sample has no rank loss: the weights would move by
    // the regularizer alone.
    return Status::InvalidArgument("per-epoch sampling caps must be > 0");
  }
  loss_history_.clear();
  stats_ = RiskTrainerStats{};

  std::vector<size_t> mis;
  std::vector<size_t> cor;
  for (size_t i = 0; i < mislabeled.size(); ++i) {
    (mislabeled[i] ? mis : cor).push_back(i);
  }
  if (mis.empty() || cor.empty()) {
    // Nothing to rank against; the prior model stands (see header).
    return Status::OK();
  }

  Timer timer;
  Rng rng(options_.seed);
  const size_t num_params = model->num_params();

  std::vector<double> params = GatherParams(*model);
  std::vector<double> grad(num_params, 0.0);
  AdamState adam{std::vector<double>(num_params, 0.0),
                 std::vector<double>(num_params, 0.0)};

  RiskModel::BatchScore batch;
  std::vector<double> coef;
  EpochSample sample;

  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    DrawEpochSample(&mis, &cor, options_, &rng, &sample);

    ScatterParams(params, model);
    loss_history_.push_back(
        FastEpoch(model, data, sample, options_, &batch, &coef, &grad));
    stats_.rank_pairs += sample.pairs.size();
    stats_.scored_pairs += sample.indices.size();

    if (options_.use_adam) {
      const double t = static_cast<double>(epoch + 1);
      const double bias1 = 1.0 - std::pow(kAdamBeta1, t);
      const double bias2 = 1.0 - std::pow(kAdamBeta2, t);
      AdamStep(&params, grad, &adam, options_.learning_rate, bias1, bias2);
    } else {
      GdStep(&params, grad, options_.learning_rate);
    }
  }

  ScatterParams(params, model);
  stats_.epochs = options_.epochs;
  stats_.train_seconds = timer.ElapsedSeconds();
  return Status::OK();
}

Status TrainRiskModel(RiskModel* model, const FeatureMatrix& rows,
                      const std::vector<double>& probs,
                      const std::vector<uint8_t>& truth,
                      const RiskTrainerOptions& options) {
  const RiskActivation activation =
      ComputeActivation(model->features(), rows, probs);
  return RiskTrainer(options).Train(
      model, activation, MislabelFlags(activation.machine_label, truth));
}

}  // namespace learnrisk
