// Copyright 2026 The LearnRisk Authors
// End-to-end experiment harness reproducing the paper's evaluation pipeline
// (Sec. 7.1): generate (or accept) a workload, split train/validation/test,
// fit the classifier and risk features through a LearnRiskPipeline (on the
// source workload's train split in OOD), then evaluate any of the six
// risk-analysis methods on the test split. Benches and integration tests are
// thin wrappers around this class. Re-exports metrics/metric_suite.h's
// GatherRows/GatherColumns/Gather helpers.

#ifndef LEARNRISK_EVAL_EXPERIMENT_H_
#define LEARNRISK_EVAL_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/holoclean_adapter.h"
#include "baselines/static_risk.h"
#include "baselines/trust_score.h"
#include "classifier/mlp.h"
#include "common/status.h"
#include "data/generators.h"
#include "data/workload.h"
#include "eval/classification_metrics.h"
#include "eval/roc.h"
#include "learnrisk/learnrisk.h"
#include "metrics/metric_suite.h"
#include "risk/risk_feature.h"
#include "risk/risk_model.h"
#include "risk/trainer.h"
#include "rules/cart.h"
#include "rules/one_sided_tree.h"

namespace learnrisk {

/// \brief Everything needed to reproduce one experimental cell.
struct ExperimentConfig {
  std::string dataset = "DS";
  double scale = 0.25;
  /// Split proportions (paper: 1:2:7, 2:2:6, 3:2:5).
  double train_ratio = 3.0;
  double valid_ratio = 2.0;
  double test_ratio = 5.0;
  uint64_t seed = 7;
  MlpOptions classifier;
  OneSidedForestOptions rules;
  RiskModelOptions risk_model;
  RiskTrainerOptions risk_trainer;
  /// Bootstrap ensemble size for the Uncertainty baseline (paper: 20).
  size_t ensemble_size = 20;
  /// When false (default), the classifier consumes only similarity metrics;
  /// difference metrics are exclusive to risk features. This mirrors the
  /// paper's setting: DeepMatcher has no difference-metric input, and
  /// Sec. 5.1 motivates diff(.,.) precisely as inequivalence knowledge the
  /// classifier lacks. Set true to ablate (classifier sees everything).
  bool classifier_uses_difference_metrics = false;
};

/// \brief One method's performance on the test split.
struct MethodResult {
  std::string name;
  double auroc = 0.5;
  RocCurve curve;
};

/// \brief Renames/reorders `target`'s attributes onto `reference`'s schema so
/// a classifier trained on `reference` can score `target` (the paper's
/// AB2AG setting). Attributes are aligned by name, then by the
/// title<->name synonym, then by first unused type-compatible column.
Result<Workload> AlignWorkload(const Workload& target,
                               const Schema& reference);

/// \brief A prepared experiment: generated data and a fitted
/// LearnRiskPipeline (classifier seed `seed + 31`, the config's rules and
/// classifier view; its risk model stays at the prior). Risk-method
/// evaluations run against this shared state so method comparisons are
/// apples-to-apples.
class Experiment {
 public:
  /// \brief Standard single-dataset preparation.
  static Result<std::unique_ptr<Experiment>> Prepare(
      const ExperimentConfig& config);

  /// \brief Out-of-distribution preparation (Sec. 7.2 "OOD evaluation"):
  /// the classifier trains on `source`'s train split, while risk training
  /// (validation) and test come from `target_dataset`.
  static Result<std::unique_ptr<Experiment>> PrepareOod(
      const ExperimentConfig& source, const std::string& target_dataset);

  /// \brief Preparation from a caller-supplied workload.
  static Result<std::unique_ptr<Experiment>> PrepareFromWorkload(
      Workload workload, const ExperimentConfig& config);

  // --- Risk-analysis methods (evaluated on the test split) -----------------

  /// \brief Baseline: classifier-output ambiguity.
  MethodResult RunBaseline() const;

  /// \brief Uncertainty: 20-model bootstrap ensemble, risk p(1-p). Trains
  /// the ensemble on first use.
  Result<MethodResult> RunUncertainty();

  /// \brief TrustScore: cluster-distance ratio on metric vectors.
  Result<MethodResult> RunTrustScore();

  /// \brief StaticRisk: Bayesian posterior + CVaR (fit on validation).
  Result<MethodResult> RunStaticRisk();

  /// \brief LearnRisk trained on the validation split.
  Result<MethodResult> RunLearnRisk();

  /// \brief LearnRisk trained on a caller-chosen subset of validation
  /// indices (sensitivity experiments, Fig. 12). Pass overrides to ablate
  /// model options.
  Result<MethodResult> RunLearnRiskOn(const std::vector<size_t>& risk_train,
                                      const RiskModelOptions& model_options,
                                      const RiskTrainerOptions& trainer_options,
                                      const std::string& name = "LearnRisk");

  /// \brief HoloClean adaptation: two-sided forest rules + log-linear
  /// inference (Fig. 11).
  Result<MethodResult> RunHoloClean();

  // --- Accessors -------------------------------------------------------------

  const Workload& workload() const { return *workload_; }
  const WorkloadSplit& split() const { return split_; }
  const FeatureMatrix& features() const { return features_; }
  const MetricSuite& metric_suite() const { return pipeline_.suite(); }
  const MlpClassifier& classifier() const { return pipeline_.classifier(); }
  const std::vector<double>& classifier_probs() const { return probs_; }
  const std::vector<uint8_t>& machine_labels() const { return machine_; }
  const std::vector<uint8_t>& truth_labels() const { return truth_; }
  const std::vector<uint8_t>& mislabel_flags() const { return mislabeled_; }
  const std::vector<Rule>& rules() const { return risk_features().rules(); }
  const RiskFeatureSet& risk_features() const {
    return pipeline_.risk_model().features();
  }
  const ExperimentConfig& config() const { return config_; }

  /// \brief Overrides the test index set (Fig. 11 evaluates 1000-pair
  /// subsets of the test split). Indices must lie in the workload.
  void set_test_indices(std::vector<size_t> test) {
    split_.test = std::move(test);
  }

  /// \brief Classifier quality on the test split.
  ConfusionMatrix TestConfusion() const;

  /// \brief Mislabeled pairs in the test split.
  size_t NumTestMislabeled() const;

  /// \brief Rule coverage over the test split.
  double TestRuleCoverage() const;

 private:
  Experiment() = default;

  Status Initialize(Workload workload, const ExperimentConfig& config,
                    const Workload* classifier_source);

  MethodResult Evaluate(const std::string& name,
                        const std::vector<double>& test_scores) const;

  // The test split's rows in the classifier's column view.
  FeatureMatrix TestClassifierFeatures() const;

  ExperimentConfig config_;
  std::unique_ptr<Workload> workload_;
  WorkloadSplit split_;
  // Fitted on the classifier-training workload (the source one in OOD).
  LearnRiskPipeline pipeline_;
  // Metric rows and classifier outputs of the evaluated workload.
  FeatureMatrix features_;
  std::vector<double> probs_;
  std::vector<uint8_t> machine_;
  std::vector<uint8_t> truth_;
  std::vector<uint8_t> mislabeled_;
  // Classifier-training data (from the source workload in OOD):
  // full-metric view for rules, classifier view for the MLP/ensemble.
  FeatureMatrix train_features_;
  FeatureMatrix train_classifier_features_;
  std::vector<uint8_t> train_labels_;
};

}  // namespace learnrisk

#endif  // LEARNRISK_EVAL_EXPERIMENT_H_
