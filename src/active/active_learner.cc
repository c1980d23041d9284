// Copyright 2026 The LearnRisk Authors

#include "active/active_learner.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "eval/classification_metrics.h"
#include "risk/risk_feature.h"
#include "risk/trainer.h"

namespace learnrisk {

const char* SelectionStrategyToString(SelectionStrategy s) {
  switch (s) {
    case SelectionStrategy::kLeastConfidence:
      return "LeastConfidence";
    case SelectionStrategy::kEntropy:
      return "Entropy";
    case SelectionStrategy::kLearnRisk:
      return "LearnRisk";
  }
  return "unknown";
}

namespace {

double BinaryEntropy(double p) {
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -p * std::log(p) - (1.0 - p) * std::log(1.0 - p);
}

// LearnRisk selection scores: generate rules on the current labeled set,
// train the risk model on it (classifier's own in-sample mistakes provide
// the risk labels), and score the unlabeled pool.
Result<std::vector<double>> LearnRiskScores(
    const FeatureMatrix& features, const std::vector<uint8_t>& truth,
    const std::vector<size_t>& labeled, const std::vector<size_t>& unlabeled,
    const std::vector<double>& all_probs, const ActiveLearningConfig& config) {
  const FeatureMatrix labeled_features = GatherRows(features, labeled);
  const std::vector<uint8_t> labeled_truth = Gather(truth, labeled);
  auto risk_features =
      GenerateRiskFeatures(labeled_features, labeled_truth, config.rules);
  if (!risk_features.ok()) return risk_features.status();
  RiskModel model(risk_features.MoveValueOrDie(), config.risk_model);
  LEARNRISK_RETURN_NOT_OK(TrainRiskModel(&model, labeled_features,
                                         Gather(all_probs, labeled),
                                         labeled_truth, config.risk_trainer));
  return model.Score(ComputeActivation(model.features(),
                                       GatherRows(features, unlabeled),
                                       Gather(all_probs, unlabeled)));
}

}  // namespace

Result<ActiveLearningCurve> RunActiveLearning(
    const FeatureMatrix& features, const std::vector<uint8_t>& truth,
    const std::vector<size_t>& pool, const std::vector<size_t>& test,
    SelectionStrategy strategy, const ActiveLearningConfig& config) {
  if (pool.size() < config.initial_labels + config.batch_size) {
    return Status::InvalidArgument("labeling pool too small");
  }
  Rng rng(config.seed);

  // Seed set: stratified random so both classes are present from the start.
  std::vector<size_t> pool_matches;
  std::vector<size_t> pool_unmatches;
  for (size_t i : pool) {
    (truth[i] ? pool_matches : pool_unmatches).push_back(i);
  }
  rng.Shuffle(&pool_matches);
  rng.Shuffle(&pool_unmatches);
  const size_t seed_matches = std::max<size_t>(
      5, config.initial_labels * pool_matches.size() / pool.size());
  std::vector<size_t> labeled;
  for (size_t k = 0; k < seed_matches && k < pool_matches.size(); ++k) {
    labeled.push_back(pool_matches[k]);
  }
  for (size_t k = 0;
       labeled.size() < config.initial_labels && k < pool_unmatches.size();
       ++k) {
    labeled.push_back(pool_unmatches[k]);
  }
  std::unordered_set<size_t> labeled_set(labeled.begin(), labeled.end());

  const FeatureMatrix test_features = GatherRows(features, test);
  const std::vector<uint8_t> test_truth = Gather(truth, test);

  ActiveLearningCurve curve;
  curve.strategy = SelectionStrategyToString(strategy);

  for (size_t round = 0; round <= config.num_batches; ++round) {
    // Retrain on the current labeled set.
    MlpOptions mlp = config.classifier;
    mlp.seed = config.seed + round;
    MlpClassifier classifier(mlp);
    LEARNRISK_RETURN_NOT_OK(classifier.Train(GatherRows(features, labeled),
                                             Gather(truth, labeled)));

    curve.labeled_sizes.push_back(labeled.size());
    curve.f1_scores.push_back(
        Confusion(classifier.PredictAll(test_features), test_truth).F1());

    if (round == config.num_batches) break;

    // Score the remaining pool and pick the next batch.
    std::vector<size_t> unlabeled;
    for (size_t i : pool) {
      if (labeled_set.count(i) == 0) unlabeled.push_back(i);
    }
    if (unlabeled.size() < config.batch_size) break;

    std::vector<double> all_probs(features.rows(), 0.0);
    // Only pool/labeled rows are consumed below; scoring all rows keeps the
    // indexing simple.
    for (size_t i = 0; i < features.rows(); ++i) {
      all_probs[i] = classifier.PredictProba(features.row(i), features.cols());
    }

    std::vector<double> selection_scores(unlabeled.size(), 0.0);
    switch (strategy) {
      case SelectionStrategy::kLeastConfidence:
        for (size_t k = 0; k < unlabeled.size(); ++k) {
          const double p = all_probs[unlabeled[k]];
          selection_scores[k] = 1.0 - std::max(p, 1.0 - p);
        }
        break;
      case SelectionStrategy::kEntropy:
        for (size_t k = 0; k < unlabeled.size(); ++k) {
          selection_scores[k] = BinaryEntropy(all_probs[unlabeled[k]]);
        }
        break;
      case SelectionStrategy::kLearnRisk: {
        auto scores = LearnRiskScores(features, truth, labeled, unlabeled,
                                      all_probs, config);
        if (!scores.ok()) return scores.status();
        selection_scores = scores.MoveValueOrDie();
        break;
      }
    }

    std::vector<size_t> order(unlabeled.size());
    for (size_t k = 0; k < order.size(); ++k) order[k] = k;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return selection_scores[a] > selection_scores[b];
    });
    for (size_t k = 0; k < config.batch_size; ++k) {
      const size_t idx = unlabeled[order[k]];
      labeled.push_back(idx);
      labeled_set.insert(idx);
    }
  }
  return curve;
}

}  // namespace learnrisk
