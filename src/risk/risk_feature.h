// Copyright 2026 The LearnRisk Authors
// Risk features (paper Sec. 4.1, 6.2.1): the one-sided rules generated by
// Algorithm 1 plus the always-active classifier-output feature. Rule
// expectations (equivalence-probability priors) are estimated on the
// classifier-training data with Laplace smoothing; per-pair activations are
// precomputed into a sparse structure the risk model and trainer share.
// GenerateRiskFeatures is the one place rules are generated for a fit.

#ifndef LEARNRISK_RISK_RISK_FEATURE_H_
#define LEARNRISK_RISK_RISK_FEATURE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "metrics/metric_suite.h"
#include "rules/one_sided_tree.h"
#include "rules/rule.h"

namespace learnrisk {

class CompiledRuleSet;

/// \brief The rule-derived risk features with their expectation priors.
class RiskFeatureSet {
 public:
  /// \brief Keeps the given rules and estimates each rule's equivalence
  /// expectation mu_f = (matches covered + 1) / (pairs covered + 2) on the
  /// classifier-training data (add-one smoothing keeps expectations off the
  /// degenerate 0/1 values so RSD stays finite). Coverage is counted through
  /// the compiled plan in one chunk-parallel pass over the rows; it equals a
  /// per-rule Rule::Matches scan (tests/forest_parity_test.cc).
  static RiskFeatureSet Build(std::vector<Rule> rules,
                              const FeatureMatrix& train_features,
                              const std::vector<uint8_t>& train_labels);

  /// \brief Reconstructs a feature set from persisted statistics (model
  /// deserialization); all three vectors must have equal length.
  static RiskFeatureSet FromParts(std::vector<Rule> rules,
                                  std::vector<double> expectations,
                                  std::vector<size_t> train_support);

  size_t num_rules() const { return rules_.size(); }
  const Rule& rule(size_t j) const { return rules_[j]; }
  const std::vector<Rule>& rules() const { return rules_; }

  /// \brief Prior expectation mu_f of rule j's equivalence probability.
  double expectation(size_t j) const { return expectations_[j]; }

  /// \brief Pairs in the classifier-training data covered by rule j.
  size_t train_support(size_t j) const { return train_support_[j]; }

  /// \brief Indices of rules whose condition holds on this metric row,
  /// ascending (evaluated via the compiled plan; the per-rule scan it must
  /// match is tests/reference/naive_activation.h).
  std::vector<uint32_t> ActiveRules(const double* metric_row) const;

  /// \brief Fraction of rows with at least one active rule (coverage;
  /// Sec. 4.1 "high-coverage" requirement). Evaluated via the compiled plan.
  double Coverage(const FeatureMatrix& features) const;

  /// \brief The columnar predicate plan compiled from the rules at
  /// construction. Immutable and shared — copies of the feature set share
  /// one plan, and a ScorerSnapshot can reference it for the life of the
  /// snapshot. A default-constructed (ruleless) set yields an empty plan.
  const CompiledRuleSet& compiled() const;

 private:
  void Compile();

  std::vector<Rule> rules_;
  std::vector<double> expectations_;
  std::vector<size_t> train_support_;
  std::shared_ptr<const CompiledRuleSet> compiled_;
};

/// \brief Algorithm 1 on the classifier-training rows, then
/// RiskFeatureSet::Build over the same rows: the one way a fit turns
/// labeled metric rows into risk features.
Result<RiskFeatureSet> GenerateRiskFeatures(
    const FeatureMatrix& rows, const std::vector<uint8_t>& labels,
    const OneSidedForestOptions& options);

/// \brief Per-workload sparse activation of the risk features.
struct RiskActivation {
  /// active[i] = rule indices matching pair i.
  std::vector<std::vector<uint32_t>> active;
  /// Classifier output (equivalence probability) per pair.
  std::vector<double> classifier_output;
  /// Machine label per pair (classifier output >= 0.5).
  std::vector<uint8_t> machine_label;

  size_t size() const { return classifier_output.size(); }
};

/// \brief Evaluates rule activations over a workload's metric features and
/// couples them with the classifier outputs. Runs the compiled columnar
/// evaluator (one chunk-parallel pass, exact-size row allocations).
RiskActivation ComputeActivation(const RiskFeatureSet& features,
                                 const FeatureMatrix& metric_features,
                                 const std::vector<double>& classifier_probs);

/// \brief Risk ground truth: 1 where the machine label disagrees with the
/// pair's ground-truth equivalence (the "positive" class of Sec. 3).
std::vector<uint8_t> MislabelFlags(const std::vector<uint8_t>& machine_labels,
                                   const std::vector<uint8_t>& truth_labels);

}  // namespace learnrisk

#endif  // LEARNRISK_RISK_RISK_FEATURE_H_
