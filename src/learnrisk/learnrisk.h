// Copyright 2026 The LearnRisk Authors
// Public entry point of the library: the LearnRiskPipeline fits the whole
// stack (metric suite, classifier on its column view, risk features through
// GenerateRiskFeatures, risk model through TrainRiskModel) behind one small
// API, and re-exports the main headers. It holds the one classifier-column
// loop; eval's Experiment fits through it.
//
// Quickstart (see examples/quickstart.cpp):
//   Workload workload = *GenerateDataset("DS", {.scale = 0.1});
//   Rng rng(7);
//   WorkloadSplit split = *StratifiedSplit(workload, 3, 2, 5, &rng);
//   LearnRiskPipeline pipeline;
//   pipeline.Fit(workload, split.train, split.valid);
//   auto ranking = pipeline.RankByRisk(split.test);
//   // ranking.front() is the test pair most likely mislabeled.

#ifndef LEARNRISK_LEARNRISK_LEARNRISK_H_
#define LEARNRISK_LEARNRISK_LEARNRISK_H_

#include <memory>
#include <string>
#include <vector>

#include "classifier/mlp.h"
#include "common/status.h"
#include "data/generators.h"
#include "data/workload.h"
#include "eval/roc.h"
#include "metrics/metric_suite.h"
#include "risk/risk_feature.h"
#include "risk/risk_model.h"
#include "risk/trainer.h"
#include "rules/one_sided_tree.h"

namespace learnrisk {

/// \brief Pipeline hyperparameters (paper defaults throughout).
struct PipelineOptions {
  MlpOptions classifier;
  OneSidedForestOptions rules;
  RiskModelOptions risk_model;
  RiskTrainerOptions risk_trainer;
  /// When false (default) the classifier sees similarity metrics only;
  /// difference metrics feed the risk features exclusively (mirrors the
  /// paper's DeepMatcher setting; see DESIGN.md §6).
  bool classifier_uses_difference_metrics = false;
};

/// \brief One entry of a risk ranking.
struct RiskRankEntry {
  size_t pair_index = 0;        ///< index into the fitted workload
  double risk = 0.0;            ///< mislabeling risk score
  double classifier_output = 0.0;
  uint8_t machine_label = 0;    ///< 1 = labeled matching by the classifier
};

/// \brief End-to-end LearnRisk: classifier + interpretable risk analysis.
class LearnRiskPipeline {
 public:
  explicit LearnRiskPipeline(PipelineOptions options = {});

  /// \brief Fits the whole stack: metric suite and classifier on `train`,
  /// risk features from `train`, risk model trained to rank `valid`'s
  /// mislabeled pairs first (left at the prior when `valid` is empty).
  /// Ground truth is read from the workload. An index outside the workload,
  /// or a pair whose record index is outside its table, is OutOfRange,
  /// checked before anything is fitted.
  Status Fit(const Workload& workload, const std::vector<size_t>& train,
             const std::vector<size_t>& valid);

  /// \brief Risk scores for arbitrary pair indices of the fitted workload.
  Result<std::vector<double>> Score(
      const std::vector<size_t>& pair_indices) const;

  /// \brief Pairs sorted by descending risk.
  Result<std::vector<RiskRankEntry>> RankByRisk(
      const std::vector<size_t>& pair_indices) const;

  /// \brief Why pair `pair_index` is (not) risky: its top feature
  /// contributions (weights, expectations, RSDs).
  Result<std::vector<RiskContribution>> Explain(size_t pair_index,
                                                size_t top_k = 5) const;

  /// \brief Human-readable one-sided rules backing the risk features.
  std::vector<std::string> RuleDescriptions() const;

  bool fitted() const { return fitted_; }
  /// \brief The fitted metric suite (for wiring a serving gateway namespace).
  const MetricSuite& suite() const { return suite_; }
  /// \brief Training-time feature matrix over every workload pair (rows
  /// align with workload pair indices). Feed DriftBaseline::FromTraining
  /// (obs/drift.h) to arm a serving gateway's drift gauges against the
  /// training distribution.
  const FeatureMatrix& features() const { return features_; }
  /// \brief Metric columns the classifier was trained on (similarity-only by
  /// default; see PipelineOptions::classifier_uses_difference_metrics).
  const std::vector<size_t>& classifier_columns() const {
    return classifier_columns_;
  }
  const MlpClassifier& classifier() const { return classifier_; }
  const RiskModel& risk_model() const { return *model_; }
  const std::vector<double>& classifier_probs() const { return probs_; }

 private:
  PipelineOptions options_;
  bool fitted_ = false;
  MetricSuite suite_;
  FeatureMatrix features_;
  std::vector<size_t> classifier_columns_;
  MlpClassifier classifier_;
  std::vector<double> probs_;
  std::unique_ptr<RiskModel> model_;
};

}  // namespace learnrisk

#endif  // LEARNRISK_LEARNRISK_LEARNRISK_H_
