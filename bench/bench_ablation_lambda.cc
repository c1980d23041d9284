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
  for (double lambda : {0.05, 0.2, 0.5, 0.8}) {
    OneSidedForestOptions rule_options = e.config().rules;
    rule_options.lambda = lambda;
    FeatureMatrix train_features = GatherRows(e.features(),
                                              e.split().train);
    std::vector<uint8_t> train_labels;
    for (size_t i : e.split().train) {
      train_labels.push_back(e.truth_labels()[i]);
    }
    auto rules = OneSidedForest::Generate(train_features, train_labels,
                                          rule_options);
    if (!rules.ok()) continue;
    RiskFeatureSet features =
        RiskFeatureSet::Build(*rules, train_features, train_labels);

    // Train and evaluate a risk model over this rule set.
    RiskModel model(features, e.config().risk_model);
    RiskActivation train_act;
    RiskActivation test_act;
    std::vector<uint8_t> train_flags;
    std::vector<uint8_t> test_flags;
    for (size_t i : e.split().valid) {
      train_act.active.push_back(features.ActiveRules(e.features().row(i)));
      train_act.classifier_output.push_back(e.classifier_probs()[i]);
      train_act.machine_label.push_back(e.machine_labels()[i]);
      train_flags.push_back(e.mislabel_flags()[i]);
    }
    for (size_t i : e.split().test) {
      test_act.active.push_back(features.ActiveRules(e.features().row(i)));
      test_act.classifier_output.push_back(e.classifier_probs()[i]);
      test_act.machine_label.push_back(e.machine_labels()[i]);
      test_flags.push_back(e.mislabel_flags()[i]);
    }
    RiskTrainer trainer(e.config().risk_trainer);
    if (!trainer.Train(&model, train_act, train_flags).ok()) continue;
    std::printf("%8.2f %8zu %10.3f %10.3f\n", lambda, rules->size(),
                features.Coverage(GatherRows(e.features(), e.split().test)),
                Auroc(model.Score(test_act), test_flags));
  }
  std::printf("\nexpected shape: small lambda (0.05-0.2) preserves AUROC; "
              "large lambda favors big impure subsets and degrades it\n");
  return 0;
}
