// Copyright 2026 The LearnRisk Authors
// The LearnRisk model (paper Sec. 4.2 and 6): each pair is a portfolio of its
// risk features; its equivalence probability follows a truncated normal
// aggregated from the feature distributions (Eq. 2-3); mislabeling risk is
// the Value-at-Risk of that distribution at confidence theta (Eq. 8-10).
//
// Learnable parameters (Sec. 6.2.1):
//   * per-rule weight      w_j   = softplus(theta_j)        (positivity)
//   * per-rule RSD         rsd_j = rsd_max * sigmoid(phi_j) (bounded, Eq. 12)
//   * influence function   f(x)  = -exp(-(x-0.5)^2/(2 a^2)) + b + 1  (Eq. 11)
//     with a = softplus(alpha_raw), b = softplus(beta_raw)
//   * per-output-bucket RSD for the classifier feature
// Expectations are fixed priors from RiskFeatureSet (classifier-training
// statistics); the classifier feature's expectation is the output itself.
//
// Weight normalization follows portfolio semantics (DESIGN.md §6.1): active
// weights are renormalized per pair so mu stays a valid probability.
//
// RiskModel is the one forward kernel: the offline experiments, the active
// learner, the trainer's batched path and online serving (ServingEngine
// scores through the published snapshot's model) all run the code below.
// The parameter transforms are baked into flat arrays whenever the raw
// parameters change (construction and ApplyUpdate), so scoring a pair is
// pure arithmetic over precomputed doubles and allocates nothing.

#ifndef LEARNRISK_RISK_RISK_MODEL_H_
#define LEARNRISK_RISK_RISK_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "risk/risk_feature.h"

namespace learnrisk {

/// Additive floor keeping portfolio sigmas strictly positive so quantile
/// gradients exist.
inline constexpr double kRiskSigmaFloor = 1e-6;

/// \brief How a pair's risk is read off its probability distribution.
enum class RiskMetric {
  kVaR,          ///< Value-at-Risk at confidence theta (the paper's choice)
  kCVaR,         ///< Conditional VaR (expected shortfall beyond VaR)
  kExpectation,  ///< distribution mean only (ablation: no fluctuation term)
};

/// \brief Model hyperparameters and initial values.
struct RiskModelOptions {
  double var_confidence = 0.9;  ///< theta (Sec. 7.1: 0.9)
  RiskMetric metric = RiskMetric::kVaR;
  double rsd_max = 1.0;         ///< upper bound of the learnable RSD
  size_t output_buckets = 10;   ///< classifier-output RSD subsets (Sec. 6.2.1)
  double init_rule_weight = 1.0;
  double init_rsd = 0.25;
  double init_alpha = 0.3;      ///< influence-function width
  double init_beta = 2.0;       ///< influence-function offset
  /// Ablation switch: when false, the classifier-output feature is dropped
  /// for pairs covered by at least one rule (pairs with no active rules keep
  /// it as a fallback so the portfolio is never empty).
  bool use_classifier_feature = true;
};

/// \brief A pair's inferred equivalence-probability distribution.
struct PairDistribution {
  double mu = 0.5;
  double sigma = 0.0;
};

/// \brief One feature's contribution to a pair's risk (interpretability
/// output; Fig. 3 "feature description" panel).
struct RiskContribution {
  std::string description;  ///< rule text or "classifier output"
  double weight = 0.0;      ///< normalized portfolio proportion
  double expectation = 0.0;
  double rsd = 0.0;
};

/// \brief The learnable risk model.
class RiskModel {
 public:
  RiskModel(RiskFeatureSet features, RiskModelOptions options = {});

  const RiskFeatureSet& features() const { return features_; }
  const RiskModelOptions& options() const { return options_; }

  // --- Scoring (plain doubles; used for ranking) ---------------------------

  /// \brief Equivalence-probability distribution of one pair from its
  /// active-rule slice.
  PairDistribution Distribution(const uint32_t* active_rules,
                                size_t num_active,
                                double classifier_output) const;
  PairDistribution Distribution(const std::vector<uint32_t>& active_rules,
                                double classifier_output) const {
    return Distribution(active_rules.data(), active_rules.size(),
                        classifier_output);
  }

  /// \brief Mislabeling risk of one pair under the configured metric.
  double RiskScore(const uint32_t* active_rules, size_t num_active,
                   double classifier_output, uint8_t machine_label) const;
  double RiskScore(const std::vector<uint32_t>& active_rules,
                   double classifier_output, uint8_t machine_label) const {
    return RiskScore(active_rules.data(), active_rules.size(),
                     classifier_output, machine_label);
  }

  /// \brief Risk scores for a whole activation set.
  std::vector<double> Score(const RiskActivation& activation) const;

  /// \brief Ranked feature contributions for one pair (top-k by weight).
  /// The classifier-output feature is always listed, even where scoring
  /// drops it (use_classifier_feature = false).
  std::vector<RiskContribution> Explain(const uint32_t* active_rules,
                                        size_t num_active,
                                        double classifier_output,
                                        size_t top_k = 5) const;
  std::vector<RiskContribution> Explain(
      const std::vector<uint32_t>& active_rules, double classifier_output,
      size_t top_k = 5) const {
    return Explain(active_rules.data(), active_rules.size(),
                   classifier_output, top_k);
  }

  // --- Batched analytic scoring (the trainer's fast path) ------------------

  /// \brief Flat parameter layout used by RiskScoreBatch jacobians and the
  /// trainer's gradient vectors:
  ///   [0, R)        theta (raw rule weights)
  ///   [R, 2R)       phi (raw rule RSDs)
  ///   2R            alpha_raw
  ///   2R + 1        beta_raw
  ///   [2R+2, 2R+2+B) phi_out (raw per-bucket output RSDs)
  size_t num_params() const {
    return 2 * num_rules() + 2 + phi_out_.size();
  }
  size_t alpha_offset() const { return 2 * num_rules(); }
  size_t beta_offset() const { return 2 * num_rules() + 1; }
  size_t phi_out_offset() const { return 2 * num_rules() + 2; }

  /// \brief Risk scores plus exact parameter Jacobians for a batch of pairs,
  /// written into contiguous SoA buffers. A pair's jacobian row is sparse —
  /// nonzero only for its active rules, alpha/beta, and its output bucket —
  /// so the rule partials are stored CSR-style: entry e in
  /// [offset[k], offset[k+1]) holds d value[k] / d theta[rule[e]] and
  /// d value[k] / d phi[rule[e]]. A rule listed twice in an activation
  /// yields two entries whose partials sum to the true derivative. Every
  /// element is rewritten on each RiskScoreBatch call, so the buffers can be
  /// reused across epochs without clearing.
  struct BatchScore {
    size_t num_params = 0;          ///< flat layout size (for callers)
    std::vector<double> value;      ///< [n] risk score per pair
    std::vector<size_t> offset;     ///< [n+1] CSR row offsets
    std::vector<uint32_t> rule;     ///< [nnz] rule index per entry
    std::vector<double> dtheta;     ///< [nnz] d value / d theta[rule]
    std::vector<double> dphi;       ///< [nnz] d value / d phi[rule]
    std::vector<double> dalpha;     ///< [n] d value / d alpha_raw
    std::vector<double> dbeta;      ///< [n] d value / d beta_raw
    std::vector<double> dbucket;    ///< [n] d value / d phi_out[bucket[k]]
    std::vector<uint32_t> bucket;   ///< [n] output bucket per pair

    /// \brief Expands row k into a dense flat-layout jacobian row
    /// (convenience for tests/tools; the trainer consumes the SoA buffers
    /// directly).
    std::vector<double> DenseRow(size_t k, size_t num_rules) const {
      std::vector<double> row(num_params, 0.0);
      for (size_t e = offset[k]; e < offset[k + 1]; ++e) {
        row[rule[e]] += dtheta[e];
        row[num_rules + rule[e]] += dphi[e];
      }
      row[2 * num_rules] = dalpha[k];
      row[2 * num_rules + 1] = dbeta[k];
      row[2 * num_rules + 2 + bucket[k]] = dbucket[k];
      return row;
    }
  };

  /// \brief Evaluates the risk score and its exact parameter gradient in
  /// closed form for every pair in `indices`. Same values and sub-gradient
  /// conventions as the autodiff-tape reference in
  /// tests/reference/tape_risk.h. Chunk-parallel over pairs.
  void RiskScoreBatch(const RiskActivation& activation,
                      const std::vector<size_t>& indices, BatchScore* out,
                      size_t num_threads = 0) const;

  /// \brief Writes gradient-descended raw parameters back and re-bakes the
  /// transforms.
  void ApplyUpdate(const std::vector<double>& theta,
                   const std::vector<double>& phi, double alpha_raw,
                   double beta_raw, const std::vector<double>& phi_out);

  // --- Parameter access -----------------------------------------------------

  size_t num_rules() const { return features_.num_rules(); }
  const std::vector<double>& theta() const { return theta_; }
  const std::vector<double>& phi() const { return phi_; }
  double alpha_raw() const { return alpha_raw_; }
  double beta_raw() const { return beta_raw_; }
  const std::vector<double>& phi_out() const { return phi_out_; }

  /// \brief Effective (transformed) parameters, read from the bake.
  double RuleWeight(size_t j) const { return weight_[j]; }
  double RuleRsd(size_t j) const { return rsd_[j]; }
  /// \brief Influence-function weight of the classifier output (Eq. 11).
  double OutputWeight(double classifier_output) const;
  double OutputRsd(double classifier_output) const {
    return out_rsd_[OutputBucket(classifier_output)];
  }
  /// \brief Bucket index of a classifier output.
  size_t OutputBucket(double classifier_output) const;

 private:
  /// \brief Recomputes the baked transforms from the raw parameters.
  void Bake();

  RiskFeatureSet features_;
  RiskModelOptions options_;
  std::vector<double> theta_;
  std::vector<double> phi_;
  double alpha_raw_ = 0.0;
  double beta_raw_ = 0.0;
  std::vector<double> phi_out_;

  // Baked transforms of the raw parameters above (see Bake).
  double alpha_ = 0.0;           ///< softplus(alpha_raw)
  double beta_ = 0.0;            ///< softplus(beta_raw)
  std::vector<double> weight_;   ///< softplus(theta_j)
  std::vector<double> rsd_;      ///< rsd_max * sigmoid(phi_j)
  std::vector<double> sigma_;    ///< rsd_j * mu_j
  std::vector<double> out_rsd_;  ///< rsd_max * sigmoid(phi_out_b)
  /// Rule::ToString(j), formatted once so explanations never re-format.
  std::vector<std::string> rule_description_;
};

}  // namespace learnrisk

#endif  // LEARNRISK_RISK_RISK_MODEL_H_
