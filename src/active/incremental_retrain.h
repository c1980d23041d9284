// Copyright 2026 The LearnRisk Authors
// Incremental risk-model retraining from review labels: the online half of
// the paper's loop (Sec. 1, 7.4). A batch of LabeledReview items — each
// carrying its metric feature row, classifier probability, and human truth —
// is turned into a RiskActivation against the *serving* model's rule set,
// and the serving parameters are tuned in place by the trainer's analytic
// gradient (RiskModel::RiskScoreBatch). Deterministic in the
// trainer seed: identical labels + identical serving model => bit-identical
// per-epoch losses and parameters.

#ifndef LEARNRISK_ACTIVE_INCREMENTAL_RETRAIN_H_
#define LEARNRISK_ACTIVE_INCREMENTAL_RETRAIN_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "metrics/metric_suite.h"
#include "review/review_queue.h"
#include "risk/risk_model.h"
#include "risk/trainer.h"

namespace learnrisk {

/// \brief Retrain hyperparameters. The trainer defaults are trimmed for the
/// online path: full offline training runs 1000 epochs, a review batch of
/// tens-to-hundreds of labels converges far sooner and the retrain happens
/// under live traffic.
struct IncrementalRetrainOptions {
  IncrementalRetrainOptions() { trainer.epochs = 200; }
  RiskTrainerOptions trainer;
};

/// \brief Everything a retrain produces: the tuned model plus the artifacts
/// publish needs (per-epoch losses for determinism checks, the label feature
/// matrix and the new model's risk scores for a refreshed DriftBaseline).
struct IncrementalRetrainOutput {
  RiskModel model;
  std::vector<double> loss_history;  ///< mean sampled rank loss per epoch
  size_t labels_used = 0;
  size_t mislabeled = 0;  ///< labels disagreeing with the machine label
  /// The labels' metric rows (row i = labels[i]) — the drift-baseline input.
  FeatureMatrix features;
  /// The *retrained* model's risk score per label row.
  std::vector<double> risk_scores;
};

/// \brief Tunes a copy of `serving_model` so the labels' mislabeled pairs
/// rank above the correct ones (trainer fast path). With fewer than one
/// mislabeled or one correct label the model is returned at the serving
/// prior (the trainer's documented small-sample behavior). InvalidArgument
/// when labels are empty or their feature rows disagree in width.
Result<IncrementalRetrainOutput> RetrainFromLabels(
    const RiskModel& serving_model, const std::vector<LabeledReview>& labels,
    const IncrementalRetrainOptions& options = {});

}  // namespace learnrisk

#endif  // LEARNRISK_ACTIVE_INCREMENTAL_RETRAIN_H_
