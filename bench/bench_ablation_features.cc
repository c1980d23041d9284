// Copyright 2026 The LearnRisk Authors
//
// Ablation: risk feature sources (Sec. 6.2.1). The full model combines
// one-sided rules with the classifier-output feature; this bench compares
// (a) both, (b) rules only, and (c) classifier output only.

#include <cstdio>

#include "bench_util.h"
#include "eval/experiment.h"

int main() {
  using namespace learnrisk;  // NOLINT
  bench::PrintBanner(
      "Ablation: feature sources (rules + output vs rules vs output)",
      bench::PaperKnobs(bench::Epochs()));

  for (const char* dataset : {"DS", "AG"}) {
    ExperimentConfig config;
    config.dataset = dataset;
    config.scale = bench::Scale();
    config.seed = bench::Seed();
    config.risk_trainer.epochs = bench::Epochs();
    auto experiment = Experiment::Prepare(config);
    if (!experiment.ok()) {
      std::printf("[%s] prepare failed: %s\n", dataset,
                  experiment.status().ToString().c_str());
      continue;
    }
    Experiment& e = **experiment;
    std::printf("\n%s (%zu rules):\n", dataset, e.rules().size());

    // (a) full model.
    auto full = e.RunLearnRiskOn(e.split().valid, e.config().risk_model,
                                 e.config().risk_trainer, "rules+output");
    if (full.ok()) std::printf("  %-14s auroc=%.3f\n", "rules+output",
                               full->auroc);

    // (b) rules only (classifier feature only as empty-portfolio fallback).
    RiskModelOptions rules_only = e.config().risk_model;
    rules_only.use_classifier_feature = false;
    auto rules_result = e.RunLearnRiskOn(e.split().valid, rules_only,
                                         e.config().risk_trainer,
                                         "rules-only");
    if (rules_result.ok()) {
      std::printf("  %-14s auroc=%.3f\n", "rules-only", rules_result->auroc);
    }

    // (c) output only: train/score with an empty rule set.
    RiskFeatureSet empty_features;
    RiskModel output_model(empty_features, e.config().risk_model);
    RiskActivation train_act;
    RiskActivation test_act;
    std::vector<uint8_t> train_flags;
    std::vector<uint8_t> test_flags;
    for (size_t i : e.split().valid) {
      train_act.active.push_back({});
      train_act.classifier_output.push_back(e.classifier_probs()[i]);
      train_act.machine_label.push_back(e.machine_labels()[i]);
      train_flags.push_back(e.mislabel_flags()[i]);
    }
    for (size_t i : e.split().test) {
      test_act.active.push_back({});
      test_act.classifier_output.push_back(e.classifier_probs()[i]);
      test_act.machine_label.push_back(e.machine_labels()[i]);
      test_flags.push_back(e.mislabel_flags()[i]);
    }
    RiskTrainer trainer(e.config().risk_trainer);
    if (trainer.Train(&output_model, train_act, train_flags).ok()) {
      std::printf("  %-14s auroc=%.3f\n", "output-only",
                  Auroc(output_model.Score(test_act), test_flags));
    }
  }
  std::printf("\nexpected shape: rules+output >= rules-only > output-only "
              "(interpretable rules carry the knowledge the classifier "
              "lacks; the output feature covers rule-less pairs)\n");
  return 0;
}
