// Copyright 2026 The LearnRisk Authors

#include "reference/tape_risk.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/math_util.h"
#include "common/random.h"

namespace learnrisk {
namespace reference {
namespace {

// The sampling and optimizer helpers below copy src/risk/trainer.cc's, so
// a seeded TapeTrain draws the same pairs and takes the same steps as
// RiskTrainer::Train. If the copies drift apart, the seeded trajectory
// parity test fails.

constexpr double kAdamBeta1 = 0.9;
constexpr double kAdamBeta2 = 0.999;
constexpr double kAdamEps = 1e-8;

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

/// One epoch's scored indices (mislabeled block first) and (mislabeled,
/// correct) positions into them.
struct EpochSample {
  std::vector<size_t> indices;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
};

size_t FastIndex(Rng* rng, size_t n) {
  const unsigned __int128 wide =
      static_cast<unsigned __int128>(rng->engine()()) * n;
  return static_cast<size_t>(wide >> 64);
}

void SampleFront(std::vector<size_t>* pool, size_t k, Rng* rng) {
  const size_t n = pool->size();
  for (size_t i = 0; i < k; ++i) {
    std::swap((*pool)[i], (*pool)[i + FastIndex(rng, n - i)]);
  }
}

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

  sample->indices.clear();
  sample->indices.insert(sample->indices.end(), mis_pool->begin(),
                         mis_pool->begin() + static_cast<long>(num_mis));
  sample->indices.insert(sample->indices.end(), cor_pool->begin(),
                         cor_pool->begin() + static_cast<long>(num_cor));

  sample->pairs.clear();
  const size_t all_pairs = num_mis * num_cor;
  if (all_pairs <= options.max_rank_pairs) {
    for (size_t a = 0; a < num_mis; ++a) {
      for (size_t b = 0; b < num_cor; ++b) {
        sample->pairs.emplace_back(static_cast<uint32_t>(a),
                                   static_cast<uint32_t>(num_mis + b));
      }
    }
  } else {
    for (size_t k = 0; k < options.max_rank_pairs; ++k) {
      const size_t a = FastIndex(rng, num_mis);
      const size_t b = FastIndex(rng, num_cor);
      sample->pairs.emplace_back(static_cast<uint32_t>(a),
                                 static_cast<uint32_t>(num_mis + b));
    }
  }
}

/// Flat layout of RiskModel::num_params(): theta, phi, alpha, beta, phi_out.
std::vector<double> GatherParams(const RiskModel& model) {
  std::vector<double> params;
  params.reserve(model.num_params());
  params.insert(params.end(), model.theta().begin(), model.theta().end());
  params.insert(params.end(), model.phi().begin(), model.phi().end());
  params.push_back(model.alpha_raw());
  params.push_back(model.beta_raw());
  params.insert(params.end(), model.phi_out().begin(), model.phi_out().end());
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

/// The parameter leaves are recorded once; each epoch rewinds to the
/// checkpoint, refreshes the leaf values, and re-records only the loss
/// subgraph.
class TapeTrainer {
 public:
  TapeTrainer(const RiskModel& model, size_t reserve_hint) {
    tape_.Reserve(reserve_hint);
    params_ = MakeTapeParams(model, &tape_);
    mark_ = tape_.Checkpoint();
  }

  double RunEpoch(const RiskModel& model, const RiskActivation& data,
                  const std::vector<double>& flat_params,
                  const EpochSample& sample,
                  const RiskTrainerOptions& options,
                  std::vector<double>* grad) {
    const size_t num_rules = model.num_rules();
    tape_.Rewind(mark_);
    for (size_t j = 0; j < num_rules; ++j) {
      tape_.SetValue(params_.theta[j], flat_params[j]);
      tape_.SetValue(params_.phi[j], flat_params[num_rules + j]);
    }
    tape_.SetValue(params_.alpha_raw, flat_params[model.alpha_offset()]);
    tape_.SetValue(params_.beta_raw, flat_params[model.beta_offset()]);
    for (size_t b = 0; b < params_.phi_out.size(); ++b) {
      tape_.SetValue(params_.phi_out[b],
                     flat_params[model.phi_out_offset() + b]);
    }

    // Risk scores recorded once per scored pair, lazily in pair order.
    std::vector<Var> scores(sample.indices.size());
    std::vector<char> scored(sample.indices.size(), 0);
    auto score_at = [&](uint32_t pos) {
      if (!scored[pos]) {
        const size_t i = sample.indices[pos];
        scores[pos] = RiskScoreOnTape(model, &tape_, params_, data.active[i],
                                      data.classifier_output[i],
                                      data.machine_label[i]);
        scored[pos] = 1;
      }
      return scores[pos];
    };

    Var loss = tape_.Constant(0.0);
    for (const auto& [a, b] : sample.pairs) {
      Var cor = score_at(b);
      Var mis = score_at(a);
      loss = loss + SoftplusV(cor - mis);
    }
    loss = loss / static_cast<double>(sample.pairs.size());
    const double epoch_loss = loss.value();

    if (options.l1 > 0.0 || options.l2 > 0.0) {
      Var reg = tape_.Constant(0.0);
      for (size_t j = 0; j < num_rules; ++j) {
        Var w = SoftplusV(params_.theta[j]);
        reg = reg + options.l1 * Abs(w) + options.l2 * Square(w);
      }
      loss = loss + reg;
    }

    peak_nodes_ = std::max(peak_nodes_, tape_.size());
    tape_.Backward(loss);

    grad->assign(flat_params.size(), 0.0);
    for (size_t j = 0; j < num_rules; ++j) {
      (*grad)[j] = tape_.Gradient(params_.theta[j]);
      (*grad)[num_rules + j] = tape_.Gradient(params_.phi[j]);
    }
    (*grad)[model.alpha_offset()] = tape_.Gradient(params_.alpha_raw);
    (*grad)[model.beta_offset()] = tape_.Gradient(params_.beta_raw);
    for (size_t b = 0; b < params_.phi_out.size(); ++b) {
      (*grad)[model.phi_out_offset() + b] =
          tape_.Gradient(params_.phi_out[b]);
    }
    return epoch_loss;
  }

  size_t peak_nodes() const { return peak_nodes_; }

 private:
  Tape tape_;
  TapeParams params_;
  size_t mark_ = 0;
  size_t peak_nodes_ = 0;
};

}  // namespace

TapeParams MakeTapeParams(const RiskModel& model, Tape* tape) {
  TapeParams params;
  params.theta.reserve(model.theta().size());
  for (double t : model.theta()) params.theta.push_back(tape->Variable(t));
  params.phi.reserve(model.phi().size());
  for (double p : model.phi()) params.phi.push_back(tape->Variable(p));
  params.alpha_raw = tape->Variable(model.alpha_raw());
  params.beta_raw = tape->Variable(model.beta_raw());
  params.phi_out.reserve(model.phi_out().size());
  for (double p : model.phi_out()) {
    params.phi_out.push_back(tape->Variable(p));
  }
  return params;
}

Var RiskScoreOnTape(const RiskModel& model, Tape* tape,
                    const TapeParams& params,
                    const std::vector<uint32_t>& active_rules,
                    double classifier_output, uint8_t machine_label) {
  const RiskModelOptions& options = model.options();
  // Classifier-output feature.
  const bool with_output =
      options.use_classifier_feature || active_rules.empty();
  const double x = Clamp(classifier_output, 0.0, 1.0);
  Var alpha = SoftplusV(params.alpha_raw);
  Var beta = SoftplusV(params.beta_raw);
  Var z = (tape->Constant(x) - 0.5) / alpha;
  Var w_out = (-Exp(-0.5 * (z * z)) + beta + 1.0) * (with_output ? 1.0 : 0.0);
  Var rsd_out =
      options.rsd_max * SigmoidV(params.phi_out[model.OutputBucket(x)]);
  Var sigma_out = rsd_out * x;

  Var weight_sum = w_out;
  Var mu_acc = w_out * x;
  Var var_acc = Square(w_out) * Square(sigma_out);
  for (uint32_t j : active_rules) {
    Var w = SoftplusV(params.theta[j]);
    const double mu = model.features().expectation(j);
    Var sigma = (options.rsd_max * SigmoidV(params.phi[j])) * mu;
    weight_sum = weight_sum + w;
    mu_acc = mu_acc + w * mu;
    var_acc = var_acc + Square(w) * Square(sigma);
  }
  Var mu = mu_acc / weight_sum;
  Var sigma = Sqrt(var_acc) / weight_sum + kRiskSigmaFloor;

  if (options.metric == RiskMetric::kExpectation) {
    // Ablation path: rank by the distribution mean only (no fluctuation
    // term). kCVaR trains against the VaR surrogate, which shares its
    // optimum ranking.
    return machine_label == 0 ? mu : 1.0 - mu;
  }

  // Truncated-normal quantile on tape:
  //   F^{-1}(p) = mu + sigma * Phi^{-1}(Phi(a) + p (Phi(b) - Phi(a))).
  const double theta = options.var_confidence;
  const double p = machine_label == 0 ? theta : 1.0 - theta;
  Var ca = NormalCdfV((0.0 - mu) / sigma);
  Var cb = NormalCdfV((1.0 - mu) / sigma);
  Var u = ca + p * (cb - ca);
  Var quantile = ClampV(mu + sigma * NormalQuantileV(u), 0.0, 1.0);
  if (machine_label == 0) return quantile;
  return 1.0 - quantile;
}

std::vector<double> TapeTrain(RiskModel* model, const RiskActivation& data,
                              const std::vector<uint8_t>& mislabeled,
                              const RiskTrainerOptions& options,
                              size_t* peak_nodes) {
  std::vector<double> loss_history;
  if (peak_nodes != nullptr) *peak_nodes = 0;
  std::vector<size_t> mis;
  std::vector<size_t> cor;
  for (size_t i = 0; i < mislabeled.size(); ++i) {
    (mislabeled[i] ? mis : cor).push_back(i);
  }
  if (mis.empty() || cor.empty()) return loss_history;

  Rng rng(options.seed);
  std::vector<double> params = GatherParams(*model);
  std::vector<double> grad(params.size(), 0.0);
  AdamState adam{std::vector<double>(params.size(), 0.0),
                 std::vector<double>(params.size(), 0.0)};

  // ~40 nodes per score plus 3 per rank pair is a comfortable upper bound
  // for one epoch's subgraph.
  const size_t scored_bound =
      std::min(mis.size(), options.max_mislabeled_per_epoch) +
      std::min(cor.size(), options.max_correct_per_epoch);
  TapeTrainer trainer(*model, 64 * scored_bound + 4 * options.max_rank_pairs);
  EpochSample sample;

  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    DrawEpochSample(&mis, &cor, options, &rng, &sample);
    loss_history.push_back(
        trainer.RunEpoch(*model, data, params, sample, options, &grad));
    if (options.use_adam) {
      const double t = static_cast<double>(epoch + 1);
      const double bias1 = 1.0 - std::pow(kAdamBeta1, t);
      const double bias2 = 1.0 - std::pow(kAdamBeta2, t);
      AdamStep(&params, grad, &adam, options.learning_rate, bias1, bias2);
    } else {
      GdStep(&params, grad, options.learning_rate);
    }
  }

  ScatterParams(params, model);
  if (peak_nodes != nullptr) *peak_nodes = trainer.peak_nodes();
  return loss_history;
}

}  // namespace reference
}  // namespace learnrisk
