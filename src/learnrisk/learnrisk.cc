// Copyright 2026 The LearnRisk Authors

#include "learnrisk/learnrisk.h"

#include <algorithm>

namespace learnrisk {

namespace {

Status CheckIndices(const std::vector<size_t>& indices, size_t size) {
  for (size_t i : indices) {
    if (i >= size) return Status::OutOfRange("pair index out of range");
  }
  return Status::OK();
}

}  // namespace

LearnRiskPipeline::LearnRiskPipeline(PipelineOptions options)
    : options_(std::move(options)) {}

Status LearnRiskPipeline::Fit(const Workload& workload,
                              const std::vector<size_t>& train,
                              const std::vector<size_t>& valid) {
  if (train.empty()) {
    return Status::InvalidArgument("empty classifier-training index set");
  }
  LEARNRISK_RETURN_NOT_OK(CheckIndices(train, workload.size()));
  LEARNRISK_RETURN_NOT_OK(CheckIndices(valid, workload.size()));
  for (const RecordPair& pair : workload.pairs()) {
    if (pair.left >= workload.left().num_records() ||
        pair.right >= workload.right().num_records()) {
      return Status::OutOfRange("pair record index out of range");
    }
  }
  fitted_ = false;
  suite_ = MetricSuite::ForSchema(workload.left().schema());
  suite_.Fit(workload);
  features_ = ComputeFeatures(workload, suite_);
  const std::vector<uint8_t> truth = workload.Labels();
  const FeatureMatrix train_features = GatherRows(features_, train);
  const std::vector<uint8_t> train_labels = Gather(truth, train);

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

  auto risk_features =
      GenerateRiskFeatures(train_features, train_labels, options_.rules);
  if (!risk_features.ok()) return risk_features.status();
  model_ = std::make_unique<RiskModel>(risk_features.MoveValueOrDie(),
                                       options_.risk_model);
  if (!valid.empty()) {
    LEARNRISK_RETURN_NOT_OK(TrainRiskModel(
        model_.get(), GatherRows(features_, valid), Gather(probs_, valid),
        Gather(truth, valid), options_.risk_trainer));
  }
  fitted_ = true;
  return Status::OK();
}

Result<std::vector<double>> LearnRiskPipeline::Score(
    const std::vector<size_t>& pair_indices) const {
  if (!fitted_) return Status::FailedPrecondition("pipeline not fitted");
  LEARNRISK_RETURN_NOT_OK(CheckIndices(pair_indices, features_.rows()));
  return model_->Score(ComputeActivation(model_->features(),
                                         GatherRows(features_, pair_indices),
                                         Gather(probs_, pair_indices)));
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
  return model_->Explain(
      model_->features().ActiveRules(features_.row(pair_index)),
      probs_[pair_index], top_k);
}

std::vector<std::string> LearnRiskPipeline::RuleDescriptions() const {
  std::vector<std::string> out;
  if (!fitted_) return out;
  out.reserve(model_->features().num_rules());
  for (const Rule& rule : model_->features().rules()) {
    out.push_back(rule.ToString());
  }
  return out;
}

}  // namespace learnrisk
