// Copyright 2026 The LearnRisk Authors

#include "risk/risk_feature.h"

#include <mutex>

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
  set.Compile();
  const size_t k = set.rules_.size();
  // Per-rule coverage and match counts through the compiled plan, one
  // chunk-parallel pass over the rows; each chunk counts into its own
  // vectors and adds them in under the lock (integer sums, so the chunk
  // order does not matter).
  std::vector<size_t> covered(k, 0);
  std::vector<size_t> matches(k, 0);
  std::mutex merge;
  const CompiledRuleSet& plan = set.compiled();
  if (k > 0) {
    ParallelForRange(train_features.rows(), [&](size_t begin, size_t end) {
      std::vector<uint64_t> scratch(plan.num_words());
      std::vector<uint32_t> active(k);
      std::vector<size_t> chunk_covered(k, 0);
      std::vector<size_t> chunk_matches(k, 0);
      for (size_t i = begin; i < end; ++i) {
        const size_t count = plan.ActiveRulesInto(
            train_features.row(i), scratch.data(), active.data());
        for (size_t a = 0; a < count; ++a) {
          ++chunk_covered[active[a]];
          chunk_matches[active[a]] += train_labels[i];
        }
      }
      std::lock_guard<std::mutex> lock(merge);
      for (size_t j = 0; j < k; ++j) {
        covered[j] += chunk_covered[j];
        matches[j] += chunk_matches[j];
      }
    });
  }
  set.expectations_.resize(k);
  for (size_t j = 0; j < k; ++j) {
    // Add-one smoothing: mu = (m + 1) / (n + 2).
    set.expectations_[j] = (static_cast<double>(matches[j]) + 1.0) /
                           (static_cast<double>(covered[j]) + 2.0);
  }
  set.train_support_ = std::move(covered);
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
