// Copyright 2026 The LearnRisk Authors
//
// Figure 14 reproduction: ER active learning on DS. A classifier is seeded
// with |L0| = 128 labeled pairs and retrained as batches of 64 are acquired
// by LeastConfidence, Entropy, or LearnRisk selection; test-set F1 is
// reported per round. The paper's finding: LearnRisk selection reaches
// higher F1 at equal label budgets.

#include <cstdio>
#include <vector>

#include "active/active_learner.h"
#include "bench_util.h"
#include "data/generators.h"
#include "eval/experiment.h"

int main() {
  using namespace learnrisk;  // NOLINT
  const size_t epochs = std::min<size_t>(bench::Epochs(), 300);
  bench::PrintBanner("Figure 14: active learning on DS (F1 vs labeled size)",
                     bench::PaperKnobs(epochs));

  GeneratorOptions gen;
  gen.scale = bench::Scale();
  gen.seed = bench::Seed();
  auto workload = GenerateDataset("DS", gen);
  if (!workload.ok()) {
    std::printf("generate failed: %s\n",
                workload.status().ToString().c_str());
    return 1;
  }
  MetricSuite suite = MetricSuite::ForSchema(workload->left().schema());
  suite.Fit(*workload);
  FeatureMatrix features = ComputeFeatures(*workload, suite);
  const std::vector<uint8_t> truth = workload->Labels();
  Rng rng(bench::Seed());
  WorkloadSplit split =
      StratifiedSplit(*workload, 5, 0, 5, &rng).MoveValueOrDie();

  // The paper seeds DeepMatcher with 128 labels, where its F1 is still ~40%.
  // Our classifier consumes engineered similarity metrics and already
  // saturates near |L| = 128, so the differentiating regime sits earlier: we
  // seed with 32 labels and a lightly-trained classifier to reproduce the
  // same growth phase (DESIGN.md §4 substitution note).
  ActiveLearningConfig config;
  config.initial_labels = 64;
  config.batch_size = 32;
  config.num_batches = 9;  // 64 .. 352 labels
  config.classifier.epochs = 30;
  config.seed = bench::Seed();
  config.risk_trainer.epochs = epochs;

  std::vector<ActiveLearningCurve> curves;
  for (SelectionStrategy strategy :
       {SelectionStrategy::kLeastConfidence, SelectionStrategy::kEntropy,
        SelectionStrategy::kLearnRisk}) {
    auto curve = RunActiveLearning(features, truth, split.train, split.test,
                                   strategy, config);
    if (!curve.ok()) {
      std::printf("%s failed: %s\n", SelectionStrategyToString(strategy),
                  curve.status().ToString().c_str());
      continue;
    }
    curves.push_back(curve.MoveValueOrDie());
  }
  if (curves.empty()) return 1;

  std::printf("\n%10s", "labels");
  for (const auto& c : curves) std::printf(" %16s", c.strategy.c_str());
  std::printf("\n");
  for (size_t r = 0; r < curves[0].labeled_sizes.size(); ++r) {
    std::printf("%10zu", curves[0].labeled_sizes[r]);
    for (const auto& c : curves) std::printf(" %15.1f%%", 100.0 * c.f1_scores[r]);
    std::printf("\n");
  }
  std::printf("\npaper Fig. 14 (DS, F1 over 128..~700 labels): LearnRisk "
              "dominates LeastConfidence and Entropy at every budget, "
              "climbing from ~40%% toward ~90%%; for binary classifiers "
              "LeastConfidence and Entropy rank identically, so their curves "
              "coincide up to tie-breaking.\n");
  return 0;
}
