// Copyright 2026 The LearnRisk Authors

#include "active/risk_training.h"

#include <algorithm>
#include <cmath>

#include "risk/risk_feature.h"
#include "risk/trainer.h"

namespace learnrisk {

Result<RiskAwareTrainingResult> TrainWithRiskTerm(
    const FeatureMatrix& features, const std::vector<uint8_t>& truth,
    const std::vector<size_t>& labeled, const std::vector<size_t>& risk_valid,
    const std::vector<size_t>& target,
    const std::vector<size_t>& classifier_columns,
    const RiskAwareTrainingOptions& options) {
  if (labeled.empty()) {
    return Status::InvalidArgument("empty labeled set");
  }
  const FeatureMatrix classifier_view =
      GatherColumns(features, classifier_columns);
  const FeatureMatrix labeled_full = GatherRows(features, labeled);
  const std::vector<uint8_t> labeled_truth = Gather(truth, labeled);

  // Round 0: plain supervised fit.
  MlpOptions mlp_options = options.classifier;
  mlp_options.seed = options.seed;
  auto classifier = std::make_unique<MlpClassifier>(mlp_options);
  LEARNRISK_RETURN_NOT_OK(classifier->Train(
      GatherRows(classifier_view, labeled), labeled_truth));

  RiskAwareTrainingResult result;
  for (size_t round = 0; round < options.rounds; ++round) {
    if (target.empty() || risk_valid.empty()) break;

    // Risk model for the current classifier: rules + expectations from the
    // labeled set, weights tuned on the risk-validation slice.
    auto risk_features =
        GenerateRiskFeatures(labeled_full, labeled_truth, options.rules);
    if (!risk_features.ok()) return risk_features.status();
    RiskModel risk_model(risk_features.MoveValueOrDie(), options.risk_model);
    LEARNRISK_RETURN_NOT_OK(TrainRiskModel(
        &risk_model, GatherRows(features, risk_valid),
        classifier->PredictProbaAll(GatherRows(classifier_view, risk_valid)),
        Gather(truth, risk_valid), options.risk_trainer));

    // Score the machine labels on the target pairs.
    const FeatureMatrix target_view = GatherRows(classifier_view, target);
    RiskActivation target_act = ComputeActivation(
        risk_model.features(), GatherRows(features, target),
        classifier->PredictProbaAll(target_view));
    const std::vector<double> risk = risk_model.Score(target_act);

    // Admit the lowest-risk fraction as pseudo-labels.
    std::vector<size_t> order(target.size());
    for (size_t k = 0; k < order.size(); ++k) order[k] = k;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return risk[a] < risk[b]; });
    const size_t admit = static_cast<size_t>(
        options.admit_fraction * static_cast<double>(target.size()));

    double admitted_risk = 0.0;
    double rejected_risk = 0.0;
    FeatureMatrix round_features(labeled.size() + admit,
                                 classifier_view.cols());
    std::vector<uint8_t> round_labels;
    round_labels.reserve(labeled.size() + admit);
    for (size_t r = 0; r < labeled.size(); ++r) {
      for (size_t c = 0; c < classifier_view.cols(); ++c) {
        round_features.set(r, c, classifier_view.at(labeled[r], c));
      }
      round_labels.push_back(truth[labeled[r]]);
    }
    for (size_t k = 0; k < target.size(); ++k) {
      if (k < admit) {
        const size_t src = order[k];
        for (size_t c = 0; c < classifier_view.cols(); ++c) {
          round_features.set(labeled.size() + k, c, target_view.at(src, c));
        }
        round_labels.push_back(target_act.machine_label[src]);
        admitted_risk += risk[src];
      } else {
        rejected_risk += risk[order[k]];
      }
    }
    result.admitted = admit;
    result.admitted_mean_risk =
        admit > 0 ? admitted_risk / static_cast<double>(admit) : 0.0;
    result.rejected_mean_risk =
        target.size() > admit
            ? rejected_risk / static_cast<double>(target.size() - admit)
            : 0.0;

    mlp_options.seed = options.seed + round + 1;
    classifier = std::make_unique<MlpClassifier>(mlp_options);
    LEARNRISK_RETURN_NOT_OK(classifier->Train(round_features, round_labels));
  }
  result.classifier = std::move(classifier);
  return result;
}

}  // namespace learnrisk
