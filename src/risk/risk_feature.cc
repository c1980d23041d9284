// Copyright 2026 The LearnRisk Authors

#include "risk/risk_feature.h"

#include "common/parallel.h"
#include "serve/compiled_rules.h"

namespace learnrisk {

void RiskFeatureSet::Compile() {
  compiled_ = std::make_shared<const CompiledRuleSet>(rules_);
}

const CompiledRuleSet& RiskFeatureSet::compiled() const {
  // Default-constructed sets (e.g. a not-yet-fitted pipeline member) never
  // ran Compile; give them the empty plan instead of a null deref.
  static const CompiledRuleSet kEmptyPlan{std::vector<Rule>()};
  return compiled_ == nullptr ? kEmptyPlan : *compiled_;
}

RiskFeatureSet RiskFeatureSet::Build(std::vector<Rule> rules,
                                     const FeatureMatrix& train_features,
                                     const std::vector<uint8_t>& train_labels) {
  RiskFeatureSet set;
  set.rules_ = std::move(rules);
  set.expectations_.resize(set.rules_.size());
  set.train_support_.resize(set.rules_.size());
  ParallelFor(set.rules_.size(), [&](size_t j) {
    const Rule& rule = set.rules_[j];
    size_t covered = 0;
    size_t matches = 0;
    for (size_t i = 0; i < train_features.rows(); ++i) {
      if (!rule.Matches(train_features.row(i))) continue;
      ++covered;
      matches += train_labels[i];
    }
    set.train_support_[j] = covered;
    // Add-one smoothing: mu = (m + 1) / (n + 2).
    set.expectations_[j] = (static_cast<double>(matches) + 1.0) /
                           (static_cast<double>(covered) + 2.0);
  });
  set.Compile();
  return set;
}

RiskFeatureSet RiskFeatureSet::FromParts(std::vector<Rule> rules,
                                         std::vector<double> expectations,
                                         std::vector<size_t> train_support) {
  RiskFeatureSet set;
  set.rules_ = std::move(rules);
  set.expectations_ = std::move(expectations);
  set.train_support_ = std::move(train_support);
  set.Compile();
  return set;
}

std::vector<uint32_t> RiskFeatureSet::ActiveRules(
    const double* metric_row) const {
  return compiled().ActiveRules(metric_row);
}

double RiskFeatureSet::Coverage(const FeatureMatrix& features) const {
  return compiled().Coverage(features);
}

Result<RiskFeatureSet> GenerateRiskFeatures(
    const FeatureMatrix& rows, const std::vector<uint8_t>& labels,
    const OneSidedForestOptions& options) {
  auto rules = OneSidedForest::Generate(rows, labels, options);
  if (!rules.ok()) return rules.status();
  return RiskFeatureSet::Build(rules.MoveValueOrDie(), rows, labels);
}

RiskActivation ComputeActivation(const RiskFeatureSet& features,
                                 const FeatureMatrix& metric_features,
                                 const std::vector<double>& classifier_probs) {
  RiskActivation activation;
  const size_t n = metric_features.rows();
  activation.active.resize(n);
  activation.classifier_output = classifier_probs;
  activation.machine_label.resize(n);
  features.compiled().EvaluateInto(metric_features, &activation.active);
  for (size_t i = 0; i < n; ++i) {
    activation.machine_label[i] = classifier_probs[i] >= 0.5 ? 1 : 0;
  }
  return activation;
}

std::vector<uint8_t> MislabelFlags(const std::vector<uint8_t>& machine_labels,
                                   const std::vector<uint8_t>& truth_labels) {
  std::vector<uint8_t> flags(machine_labels.size());
  for (size_t i = 0; i < machine_labels.size(); ++i) {
    flags[i] = machine_labels[i] != truth_labels[i] ? 1 : 0;
  }
  return flags;
}

}  // namespace learnrisk
