// Copyright 2026 The LearnRisk Authors

#include "learnrisk/learnrisk.h"

#include <algorithm>

#include "eval/experiment.h"
#include "serve/compiled_rules.h"

namespace learnrisk {

LearnRiskPipeline::LearnRiskPipeline(PipelineOptions options)
    : options_(std::move(options)) {}

Status LearnRiskPipeline::Fit(const Workload& workload,
                              const std::vector<size_t>& train,
                              const std::vector<size_t>& valid) {
  if (train.empty()) {
    return Status::InvalidArgument("empty classifier-training index set");
  }
  suite_ = MetricSuite::ForSchema(workload.left().schema());
  suite_.Fit(workload);
  features_ = ComputeFeatures(workload, suite_);
  const std::vector<uint8_t> truth = workload.Labels();

  FeatureMatrix train_features = GatherRows(features_, train);
  std::vector<uint8_t> train_labels;
  train_labels.reserve(train.size());
  for (size_t i : train) train_labels.push_back(truth[i]);

  classifier_columns_.clear();
  for (size_t c = 0; c < suite_.specs().size(); ++c) {
    if (options_.classifier_uses_difference_metrics ||
        !IsDifferenceMetric(suite_.specs()[c].kind)) {
      classifier_columns_.push_back(c);
    }
  }
  classifier_ = MlpClassifier(options_.classifier);
  LEARNRISK_RETURN_NOT_OK(classifier_.Train(
      GatherColumns(train_features, classifier_columns_), train_labels));
  probs_ = classifier_.PredictProbaAll(
      GatherColumns(features_, classifier_columns_));

  auto rules =
      OneSidedForest::Generate(train_features, train_labels, options_.rules);
  if (!rules.ok()) return rules.status();
  risk_features_ = RiskFeatureSet::Build(rules.MoveValueOrDie(),
                                         train_features, train_labels);
  model_ = std::make_unique<RiskModel>(risk_features_, options_.risk_model);

  if (!valid.empty()) {
    std::vector<double> valid_probs;
    std::vector<uint8_t> machine;
    std::vector<uint8_t> valid_truth;
    for (size_t i : valid) {
      valid_probs.push_back(probs_[i]);
      machine.push_back(probs_[i] >= 0.5 ? 1 : 0);
      valid_truth.push_back(truth[i]);
    }
    RiskActivation activation = ComputeActivation(
        risk_features_, GatherRows(features_, valid), valid_probs);
    RiskTrainer trainer(options_.risk_trainer);
    LEARNRISK_RETURN_NOT_OK(trainer.Train(
        model_.get(), activation, MislabelFlags(machine, valid_truth)));
  }
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> LearnRiskPipeline::Score(
    const std::vector<size_t>& pair_indices) const {
  if (!fitted_) return Status::FailedPrecondition("pipeline not fitted");
  std::vector<double> probs;
  probs.reserve(pair_indices.size());
  for (size_t i : pair_indices) {
    if (i >= features_.rows()) {
      return Status::OutOfRange("pair index out of range");
    }
    probs.push_back(probs_[i]);
  }
  RiskActivation activation = ComputeActivation(
      risk_features_, GatherRows(features_, pair_indices), probs);
  return model_->Score(activation);
}

Result<std::vector<RiskRankEntry>> LearnRiskPipeline::RankByRisk(
    const std::vector<size_t>& pair_indices) const {
  auto scores = Score(pair_indices);
  if (!scores.ok()) return scores.status();
  std::vector<RiskRankEntry> entries(pair_indices.size());
  for (size_t k = 0; k < pair_indices.size(); ++k) {
    entries[k].pair_index = pair_indices[k];
    entries[k].risk = (*scores)[k];
    entries[k].classifier_output = probs_[pair_indices[k]];
    entries[k].machine_label = probs_[pair_indices[k]] >= 0.5 ? 1 : 0;
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const RiskRankEntry& a, const RiskRankEntry& b) {
                     return a.risk > b.risk;
                   });
  return entries;
}

Result<std::vector<RiskContribution>> LearnRiskPipeline::Explain(
    size_t pair_index, size_t top_k) const {
  if (!fitted_) return Status::FailedPrecondition("pipeline not fitted");
  if (pair_index >= features_.rows()) {
    return Status::OutOfRange("pair index out of range");
  }
  const std::vector<uint32_t> active =
      risk_features_.compiled().ActiveRules(features_.row(pair_index));
  return model_->Explain(active, probs_[pair_index], top_k);
}

std::vector<std::string> LearnRiskPipeline::RuleDescriptions() const {
  std::vector<std::string> out;
  out.reserve(risk_features_.num_rules());
  for (const Rule& rule : risk_features_.rules()) {
    out.push_back(rule.ToString());
  }
  return out;
}

}  // namespace learnrisk
