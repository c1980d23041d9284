// Copyright 2026 The LearnRisk Authors

#include "active/incremental_retrain.h"

#include <utility>

#include "risk/risk_feature.h"
#include "serve/compiled_rules.h"

namespace learnrisk {

Result<IncrementalRetrainOutput> RetrainFromLabels(
    const RiskModel& serving_model, const std::vector<LabeledReview>& labels,
    const IncrementalRetrainOptions& options) {
  if (labels.empty()) {
    return Status::InvalidArgument("no review labels to retrain from");
  }
  const size_t cols = labels[0].item.features.size();
  if (cols == 0) {
    return Status::InvalidArgument("review labels carry no feature rows");
  }
  if (cols < serving_model.features().compiled().min_feature_columns()) {
    return Status::InvalidArgument(
        "review label feature rows are narrower than the model's rules read");
  }
  FeatureMatrix features(labels.size(), cols);
  std::vector<double> probs(labels.size());
  std::vector<uint8_t> truth(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    const ReviewItem& item = labels[i].item;
    if (item.features.size() != cols) {
      return Status::InvalidArgument(
          "review label feature rows disagree in width");
    }
    double* row = features.mutable_row(i);
    for (size_t c = 0; c < cols; ++c) row[c] = item.features[c];
    probs[i] = item.classifier_prob;
    truth[i] = labels[i].truth;
  }

  // Activate against the serving model's own rule set: labels collected
  // under any earlier version stay usable because they carry raw metric
  // rows, not rule activations.
  const RiskActivation activation =
      ComputeActivation(serving_model.features(), features, probs);
  const std::vector<uint8_t> mislabeled =
      MislabelFlags(activation.machine_label, truth);

  // Aggregate-initialized around the model copy: RiskModel has no default
  // constructor (a model always has a feature set).
  IncrementalRetrainOutput out{serving_model, {}, 0, 0, {}, {}};
  out.labels_used = labels.size();
  for (uint8_t flag : mislabeled) out.mislabeled += flag;

  RiskTrainer trainer(options.trainer);
  LEARNRISK_RETURN_NOT_OK(trainer.Train(&out.model, activation, mislabeled));
  out.loss_history = trainer.loss_history();
  out.risk_scores = out.model.Score(activation);
  out.features = std::move(features);
  return out;
}

}  // namespace learnrisk
