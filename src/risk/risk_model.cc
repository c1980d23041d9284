// Copyright 2026 The LearnRisk Authors

#include "risk/risk_model.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "common/parallel.h"

namespace learnrisk {
namespace {

double Logit(double p) {
  p = Clamp(p, 1e-9, 1.0 - 1e-9);
  return std::log(p / (1.0 - p));
}

/// Per-batch derivative terms of the parameter transforms, shared by every
/// pair: one sigmoid per rule and bucket for the whole batch instead of one
/// per (pair, rule). The transforms themselves come from the bake.
struct BatchContext {
  double safe_alpha = 0.0;  ///< SafeDenominator(alpha), hoisted per batch
  double inv_alpha = 0.0;   ///< 1 / safe_alpha (gradient-path reciprocal)
  double sig_alpha = 0.0;  ///< d softplus(alpha_raw)
  double sig_beta = 0.0;
  std::vector<double> dw;        ///< sigmoid(theta_j)
  std::vector<double> dsigma;    ///< d sigma_j / d phi_j
  std::vector<double> s_out;     ///< sigmoid(phi_out_b)
};

}  // namespace

RiskModel::RiskModel(RiskFeatureSet features, RiskModelOptions options)
    : features_(std::move(features)), options_(options) {
  const size_t m = features_.num_rules();
  theta_.assign(m, SoftplusInverse(options_.init_rule_weight));
  phi_.assign(m, Logit(options_.init_rsd / options_.rsd_max));
  alpha_raw_ = SoftplusInverse(options_.init_alpha);
  beta_raw_ = SoftplusInverse(options_.init_beta);
  phi_out_.assign(options_.output_buckets,
                  Logit(options_.init_rsd / options_.rsd_max));
  rule_description_.reserve(m);
  for (size_t j = 0; j < m; ++j) {
    rule_description_.push_back(features_.rule(j).ToString());
  }
  Bake();
}

void RiskModel::Bake() {
  const size_t n_rules = num_rules();
  weight_.resize(n_rules);
  rsd_.resize(n_rules);
  sigma_.resize(n_rules);
  for (size_t j = 0; j < n_rules; ++j) {
    weight_[j] = Softplus(theta_[j]);
    rsd_[j] = options_.rsd_max * Sigmoid(phi_[j]);
    sigma_[j] = rsd_[j] * features_.expectation(j);
  }
  alpha_ = Softplus(alpha_raw_);
  beta_ = Softplus(beta_raw_);
  out_rsd_.resize(phi_out_.size());
  for (size_t b = 0; b < phi_out_.size(); ++b) {
    out_rsd_[b] = options_.rsd_max * Sigmoid(phi_out_[b]);
  }
}

double RiskModel::OutputWeight(double x) const {
  const double z = (x - 0.5) / SafeDenominator(alpha_);
  return -std::exp(-0.5 * z * z) + beta_ + 1.0;
}

size_t RiskModel::OutputBucket(double x) const {
  const double b = std::floor(Clamp(x, 0.0, 1.0) *
                              static_cast<double>(options_.output_buckets));
  return std::min(static_cast<size_t>(b), options_.output_buckets - 1);
}

PairDistribution RiskModel::Distribution(const uint32_t* active_rules,
                                         size_t num_active,
                                         double classifier_output) const {
  // Classifier-output feature: expectation is the output itself (Sec. 6.2.1).
  const bool with_output = options_.use_classifier_feature || num_active == 0;
  const double w_out = with_output ? OutputWeight(classifier_output) : 0.0;
  const double mu_out = Clamp(classifier_output, 0.0, 1.0);
  const double sigma_out = OutputRsd(classifier_output) * mu_out;

  double weight_sum = w_out;
  double mu_acc = w_out * mu_out;
  double var_acc = w_out * w_out * sigma_out * sigma_out;
  for (size_t k = 0; k < num_active; ++k) {
    const uint32_t j = active_rules[k];
    const double w = weight_[j];
    const double sigma = sigma_[j];
    weight_sum += w;
    mu_acc += w * features_.expectation(j);
    var_acc += w * w * sigma * sigma;
  }
  // The same division guard as RiskScoreBatch: an all-underflowed
  // portfolio (every weight 0) gives mu = 0 instead of 0 / 0.
  const double safe_sum = SafeDenominator(weight_sum);
  PairDistribution dist;
  dist.mu = mu_acc / safe_sum;
  dist.sigma = std::sqrt(var_acc) / safe_sum + kRiskSigmaFloor;
  return dist;
}

double RiskModel::RiskScore(const uint32_t* active_rules, size_t num_active,
                            double classifier_output,
                            uint8_t machine_label) const {
  const PairDistribution dist =
      Distribution(active_rules, num_active, classifier_output);
  const double theta = options_.var_confidence;
  switch (options_.metric) {
    case RiskMetric::kVaR:
      // Eq. 9-10: an unmatching-labeled pair is mislabeled with probability
      // p (its equivalence probability), so its worst-case loss is the upper
      // theta-quantile of p; matching labels mirror through 1 - p.
      if (machine_label == 0) {
        return TruncatedNormalQuantile(theta, dist.mu, dist.sigma, 0.0, 1.0);
      }
      return 1.0 -
             TruncatedNormalQuantile(1.0 - theta, dist.mu, dist.sigma, 0.0,
                                     1.0);
    case RiskMetric::kCVaR: {
      if (machine_label == 0) {
        const double var =
            TruncatedNormalQuantile(theta, dist.mu, dist.sigma, 0.0, 1.0);
        return TruncatedNormalMean(dist.mu, dist.sigma, var, 1.0);
      }
      const double var =
          TruncatedNormalQuantile(1.0 - theta, dist.mu, dist.sigma, 0.0, 1.0);
      return 1.0 - TruncatedNormalMean(dist.mu, dist.sigma, 0.0, var);
    }
    case RiskMetric::kExpectation: {
      const double mean = TruncatedNormalMean(dist.mu, dist.sigma, 0.0, 1.0);
      return machine_label == 0 ? mean : 1.0 - mean;
    }
  }
  return 0.0;
}

std::vector<double> RiskModel::Score(const RiskActivation& activation) const {
  std::vector<double> scores(activation.size());
  ParallelFor(activation.size(), [&](size_t i) {
    scores[i] = RiskScore(activation.active[i],
                          activation.classifier_output[i],
                          activation.machine_label[i]);
  });
  return scores;
}

void RiskModel::RiskScoreBatch(const RiskActivation& activation,
                               const std::vector<size_t>& indices,
                               BatchScore* out, size_t num_threads) const {
  const size_t n = indices.size();
  out->num_params = num_params();
  out->value.resize(n);
  out->dalpha.resize(n);
  out->dbeta.resize(n);
  out->dbucket.resize(n);
  out->bucket.resize(n);
  // CSR offsets over each pair's active-rule list: count/prefix/fill — a
  // parallel count pass, a serial prefix sum, and the parallel per-pair fill
  // below writing every jacobian row into its final slice in place.
  out->offset.resize(n + 1);
  out->offset[0] = 0;
  ParallelFor(
      n,
      [&](size_t k) {
        out->offset[k + 1] = activation.active[indices[k]].size();
      },
      num_threads);
  for (size_t k = 0; k < n; ++k) out->offset[k + 1] += out->offset[k];
  const size_t nnz = out->offset[n];
  out->rule.resize(nnz);
  out->dtheta.resize(nnz);
  out->dphi.resize(nnz);

  // Parameter transforms, once per batch.
  BatchContext ctx;
  ctx.safe_alpha = SafeDenominator(alpha_);
  ctx.inv_alpha = 1.0 / ctx.safe_alpha;
  ctx.sig_alpha = Sigmoid(alpha_raw_);
  ctx.sig_beta = Sigmoid(beta_raw_);
  const size_t n_rules = num_rules();
  ctx.dw.resize(n_rules);
  ctx.dsigma.resize(n_rules);
  for (size_t j = 0; j < n_rules; ++j) {
    ctx.dw[j] = Sigmoid(theta_[j]);
    const double s = Sigmoid(phi_[j]);
    const double mu_j = features_.expectation(j);
    ctx.dsigma[j] = s * (1.0 - s) * options_.rsd_max * mu_j;
  }
  ctx.s_out.resize(phi_out_.size());
  for (size_t b = 0; b < phi_out_.size(); ++b) {
    ctx.s_out[b] = Sigmoid(phi_out_[b]);
  }

  const double rsd_max = options_.rsd_max;
  const double theta_conf = options_.var_confidence;
  const RiskMetric metric = options_.metric;

  ParallelFor(
      n,
      [&](size_t k) {
        const size_t i = indices[k];
        const std::vector<uint32_t>& active = activation.active[i];
        const uint8_t label = activation.machine_label[i];

        // --- Forward pass: the exact arithmetic of the tape reference. ----
        const bool with_output =
            options_.use_classifier_feature || active.empty();
        const double x = Clamp(activation.classifier_output[i], 0.0, 1.0);
        const size_t bucket = OutputBucket(x);
        const double m = with_output ? 1.0 : 0.0;
        const double z = (x - 0.5) / ctx.safe_alpha;
        const double eg = std::exp(-0.5 * (z * z));
        const double w_out = ((-eg + beta_) + 1.0) * m;
        const double rsd_out = ctx.s_out[bucket] * rsd_max;
        const double sigma_out = rsd_out * x;

        double weight_sum = w_out;
        double mu_acc = w_out * x;
        double var_acc = (w_out * w_out) * (sigma_out * sigma_out);
        for (uint32_t j : active) {
          weight_sum = weight_sum + weight_[j];
          mu_acc = mu_acc + weight_[j] * features_.expectation(j);
          var_acc = var_acc + (weight_[j] * weight_[j]) *
                                  (sigma_[j] * sigma_[j]);
        }
        const double safe_sum = SafeDenominator(weight_sum);
        const double mu = mu_acc / safe_sum;
        const double root = std::sqrt(std::max(var_acc, 0.0));
        const double root_over_sum = root / safe_sum;
        const double sigma = root_over_sum + kRiskSigmaFloor;

        // --- Reverse chain collapsed to a linear functional: ---------------
        //   d value = c_mu * d mu + c_sigma * d sigma
        // with the tape reference's sub-gradient conventions (clamp kinks
        // give zero, the quantile's input clamp passes gradient through).
        double value = 0.0;
        double c_mu = 0.0;
        double c_sigma = 0.0;
        const double sgn = label == 0 ? 1.0 : -1.0;
        if (metric == RiskMetric::kExpectation) {
          value = label == 0 ? mu : 1.0 - mu;
          c_mu = sgn;
        } else {
          const double p = label == 0 ? theta_conf : 1.0 - theta_conf;
          const double safe_sigma = SafeDenominator(sigma);
          const double as = (0.0 - mu) / safe_sigma;
          const double bs = (1.0 - mu) / safe_sigma;
          const double ca = NormalCdf(as);
          const double cb = NormalCdf(bs);
          const double u = ca + (cb - ca) * p;
          const double uc = Clamp(u, 1e-12, 1.0 - 1e-12);
          const double q = NormalQuantile(uc);
          const double dq_du = 1.0 / std::max(NormalPdf(q), 1e-300);
          const double q_raw = mu + sigma * q;
          const double quantile = Clamp(q_raw, 0.0, 1.0);
          value = label == 0 ? quantile : 1.0 - quantile;

          if (q_raw > 0.0 && q_raw < 1.0) {
            // du/dmu and du/dsigma through both normal CDFs. Gradient-only
            // arithmetic (1e-6 parity budget), so divisions fold into one
            // reciprocal.
            const double inv_sigma = 1.0 / safe_sigma;
            const double wa = (1.0 - p) * NormalPdf(as);
            const double wb = p * NormalPdf(bs);
            const double du_dmu = -(wa + wb) * inv_sigma;
            const double du_dsigma = -(wa * as + wb * bs) * inv_sigma;
            c_mu = sgn * (1.0 + sigma * dq_du * du_dmu);
            c_sigma = sgn * (q + sigma * dq_du * du_dsigma);
          }
        }
        out->value[k] = value;

        // Pull (c_mu, c_sigma) back onto the portfolio accumulators
        // (S, M, V) = (weight_sum, mu_acc, var_acc):
        //   mu    = M / S
        //   sigma = sqrt(V) / S + floor
        const double inv_sum = 1.0 / safe_sum;
        const double d_root = root > 0.0 ? 0.5 / root : 0.0;
        const double c_M = c_mu * inv_sum;
        const double c_S =
            -(c_mu * mu + c_sigma * root_over_sum) * inv_sum;
        const double c_V = c_sigma * d_root * inv_sum;

        // Sparse parameter partials: active rules (CSR slice), alpha/beta,
        // one bucket.
        size_t e = out->offset[k];
        for (uint32_t j : active) {
          const double dS = ctx.dw[j];
          out->rule[e] = j;
          out->dtheta[e] =
              dS * (c_S + c_M * features_.expectation(j) +
                    c_V * 2.0 * weight_[j] * (sigma_[j] * sigma_[j]));
          out->dphi[e] = c_V * (weight_[j] * weight_[j]) * 2.0 * sigma_[j] *
                         ctx.dsigma[j];
          ++e;
        }
        // d w_out / d alpha_raw: through z = (x - 0.5) / softplus(alpha_raw)
        // and exp(-z^2 / 2).
        const double dwout_da =
            m * eg * z * (-z * ctx.inv_alpha) * ctx.sig_alpha;
        const double dwout_db = m * ctx.sig_beta;
        const double out_common =
            c_S + c_M * x + c_V * 2.0 * w_out * (sigma_out * sigma_out);
        out->dalpha[k] = dwout_da * out_common;
        out->dbeta[k] = dwout_db * out_common;
        out->bucket[k] = static_cast<uint32_t>(bucket);
        out->dbucket[k] =
            c_V * (w_out * w_out) * 2.0 * sigma_out *
            (ctx.s_out[bucket] * (1.0 - ctx.s_out[bucket]) * rsd_max * x);
      },
      num_threads);
}

std::vector<RiskContribution> RiskModel::Explain(const uint32_t* active_rules,
                                                 size_t num_active,
                                                 double classifier_output,
                                                 size_t top_k) const {
  const double w_out = OutputWeight(classifier_output);
  double weight_sum = w_out;
  for (size_t k = 0; k < num_active; ++k) {
    weight_sum += weight_[active_rules[k]];
  }
  weight_sum = SafeDenominator(weight_sum);

  std::vector<RiskContribution> contributions;
  contributions.reserve(num_active + 1);
  RiskContribution out;
  out.description =
      "classifier output p=" + std::to_string(classifier_output);
  out.weight = w_out / weight_sum;
  out.expectation = classifier_output;
  out.rsd = OutputRsd(classifier_output);
  contributions.push_back(std::move(out));

  for (size_t k = 0; k < num_active; ++k) {
    const uint32_t j = active_rules[k];
    RiskContribution c;
    c.description = rule_description_[j];
    c.weight = weight_[j] / weight_sum;
    c.expectation = features_.expectation(j);
    c.rsd = rsd_[j];
    contributions.push_back(std::move(c));
  }
  std::stable_sort(contributions.begin(), contributions.end(),
                   [](const RiskContribution& a, const RiskContribution& b) {
                     return a.weight > b.weight;
                   });
  if (contributions.size() > top_k) contributions.resize(top_k);
  return contributions;
}

void RiskModel::ApplyUpdate(const std::vector<double>& theta,
                            const std::vector<double>& phi, double alpha_raw,
                            double beta_raw,
                            const std::vector<double>& phi_out) {
  theta_ = theta;
  phi_ = phi;
  alpha_raw_ = alpha_raw;
  beta_raw_ = beta_raw;
  phi_out_ = phi_out;
  Bake();
}

}  // namespace learnrisk
