// Copyright 2026 The LearnRisk Authors
//
// Ablation: the size-vs-impurity weight lambda of the one-sided Gini index
// (Eq. 7). The paper recommends a low value (0.2): large lambda trades rule
// purity for subset size, degrading the discriminating power of the
// generated risk features.

#include <cstdio>

#include "bench_util.h"
#include "eval/experiment.h"

int main() {
  using namespace learnrisk;  // NOLINT
  bench::PrintBanner("Ablation: one-sided Gini lambda (Eq. 7; paper uses 0.2)",
                     bench::PaperKnobs(bench::Epochs()));

  ExperimentConfig config;
  config.dataset = "DS";
  config.scale = bench::Scale();
  config.seed = bench::Seed();
  config.risk_trainer.epochs = bench::Epochs();
  auto experiment = Experiment::Prepare(config);
  if (!experiment.ok()) {
    std::printf("prepare failed: %s\n",
                experiment.status().ToString().c_str());
    return 1;
  }
  Experiment& e = **experiment;

  std::printf("\n%8s %8s %10s %10s\n", "lambda", "rules", "coverage",
              "auroc");
  const std::vector<size_t>& train = e.split().train;
  const std::vector<size_t>& valid = e.split().valid;
  const std::vector<size_t>& test = e.split().test;
  const FeatureMatrix test_rows = GatherRows(e.features(), test);
  for (double lambda : {0.05, 0.2, 0.5, 0.8}) {
    OneSidedForestOptions rule_options = e.config().rules;
    rule_options.lambda = lambda;
    auto features =
        GenerateRiskFeatures(GatherRows(e.features(), train),
                             Gather(e.truth_labels(), train), rule_options);
    if (!features.ok()) continue;

    // Train and evaluate a risk model over this rule set.
    RiskModel model(*features, e.config().risk_model);
    if (!TrainRiskModel(&model, GatherRows(e.features(), valid),
                        Gather(e.classifier_probs(), valid),
                        Gather(e.truth_labels(), valid),
                        e.config().risk_trainer)
             .ok()) {
      continue;
    }
    const std::vector<double> risk = model.Score(ComputeActivation(
        model.features(), test_rows, Gather(e.classifier_probs(), test)));
    std::printf("%8.2f %8zu %10.3f %10.3f\n", lambda, features->num_rules(),
                features->Coverage(test_rows),
                Auroc(risk, Gather(e.mislabel_flags(), test)));
  }
  std::printf("\nexpected shape: small lambda (0.05-0.2) preserves AUROC; "
              "large lambda favors big impure subsets and degrades it\n");
  return 0;
}
