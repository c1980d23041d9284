// Copyright 2026 The LearnRisk Authors
//
// Extension bench (Sec. 8 "Model Training"): risk-aware self-training. The
// classifier retrains on labeled pairs plus risk-screened pseudo-labels on
// unlabeled target pairs; compares held-out F1 against plain supervised
// training and unscreened (admit-everything) self-training on DS and AG.

#include <cstdio>

#include "active/risk_training.h"
#include "bench_util.h"
#include "data/generators.h"
#include "eval/classification_metrics.h"
#include "eval/experiment.h"

namespace {

using namespace learnrisk;  // NOLINT

double EvaluateF1(const MlpClassifier& clf, const FeatureMatrix& view,
                  const std::vector<uint8_t>& truth,
                  const std::vector<size_t>& test) {
  std::vector<uint8_t> pred;
  std::vector<uint8_t> test_truth;
  for (size_t i : test) {
    pred.push_back(
        clf.PredictProba(GatherRows(view, {i}).row(0), view.cols()) >= 0.5
            ? 1
            : 0);
    test_truth.push_back(truth[i]);
  }
  return Confusion(pred, test_truth).F1();
}

}  // namespace

int main() {
  const size_t epochs = std::min<size_t>(bench::Epochs(), 300);
  bench::PrintBanner(
      "Extension: risk-aware self-training (Sec. 8 'Model Training')",
      bench::PaperKnobs(epochs));

  for (const char* dataset : {"DS", "AG"}) {
    GeneratorOptions gen;
    gen.scale = bench::Scale();
    gen.seed = bench::Seed();
    auto workload = GenerateDataset(dataset, gen);
    if (!workload.ok()) continue;
    MetricSuite suite = MetricSuite::ForSchema(workload->left().schema());
    suite.Fit(*workload);
    FeatureMatrix features = ComputeFeatures(*workload, suite);
    const std::vector<uint8_t> truth = workload->Labels();

    Rng rng(bench::Seed());
    WorkloadSplit split =
        StratifiedSplit(*workload, 1, 2, 7, &rng).MoveValueOrDie();
    std::vector<size_t> target;
    std::vector<size_t> test;
    for (size_t k = 0; k < split.test.size(); ++k) {
      (k % 2 == 0 ? target : test).push_back(split.test[k]);
    }
    std::vector<size_t> classifier_columns;
    for (size_t c = 0; c < suite.num_metrics(); ++c) {
      if (!IsDifferenceMetric(suite.specs()[c].kind)) {
        classifier_columns.push_back(c);
      }
    }
    const FeatureMatrix view = GatherColumns(features, classifier_columns);

    RiskAwareTrainingOptions options;
    options.seed = bench::Seed();
    options.risk_trainer.epochs = epochs;

    // Plain supervised baseline.
    MlpClassifier plain(options.classifier);
    std::vector<uint8_t> labeled_truth;
    for (size_t i : split.train) labeled_truth.push_back(truth[i]);
    if (!plain.Train(GatherRows(view, split.train), labeled_truth).ok()) {
      continue;
    }

    // Unscreened self-training (admit all machine labels).
    RiskAwareTrainingOptions unscreened = options;
    unscreened.admit_fraction = 1.0;
    auto naive = TrainWithRiskTerm(features, truth, split.train, split.valid,
                                   target, classifier_columns, unscreened);

    // Risk-screened self-training.
    auto screened =
        TrainWithRiskTerm(features, truth, split.train, split.valid, target,
                          classifier_columns, options);

    std::printf("\n%s (labeled=%zu, unlabeled target=%zu):\n", dataset,
                split.train.size(), target.size());
    std::printf("  supervised only        F1=%.3f\n",
                EvaluateF1(plain, view, truth, test));
    if (naive.ok()) {
      std::printf("  self-train (admit all) F1=%.3f\n",
                  EvaluateF1(*naive->classifier, view, truth, test));
    }
    if (screened.ok()) {
      std::printf("  self-train (risk-screened, admitted %zu; mean risk "
                  "admitted %.3f vs rejected %.3f) F1=%.3f\n",
                  screened->admitted, screened->admitted_mean_risk,
                  screened->rejected_mean_risk,
                  EvaluateF1(*screened->classifier, view, truth, test));
    }
  }
  std::printf("\nexpected shape: risk screening keeps wrong machine labels "
              "out of the retraining objective, so it matches or beats both "
              "plain supervision and unscreened self-training\n");
  return 0;
}
