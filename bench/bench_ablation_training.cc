// Copyright 2026 The LearnRisk Authors
//
// Ablation: learnability (the paper's core claim). Compares the trained risk
// model against the identical model left at its priors (uniform weights,
// fixed RSD) on every dataset, isolating the contribution of Sec. 6.2's
// learning-to-rank step.

#include <cstdio>

#include "bench_util.h"
#include "eval/experiment.h"

int main() {
  using namespace learnrisk;  // NOLINT
  bench::PrintBanner("Ablation: trained vs untrained (prior) risk model",
                     bench::PaperKnobs(bench::Epochs()));

  std::printf("\n%-8s %12s %12s %8s\n", "data", "untrained", "trained",
              "gain");
  auto run_cell = [](const std::string& label, Experiment& e) {
    RiskTrainerOptions no_training = e.config().risk_trainer;
    no_training.epochs = 0;
    auto untrained = e.RunLearnRiskOn(e.split().valid, e.config().risk_model,
                                      no_training, "untrained");
    auto trained = e.RunLearnRisk();
    if (!untrained.ok() || !trained.ok()) return;
    std::printf("%-8s %12.3f %12.3f %+8.3f\n", label.c_str(),
                untrained->auroc, trained->auroc,
                trained->auroc - untrained->auroc);
  };

  for (const std::string& dataset : {"DS", "AB", "AG", "SG"}) {
    ExperimentConfig config;
    config.dataset = dataset;
    config.scale = bench::Scale();
    config.seed = bench::Seed();
    config.risk_trainer.epochs = bench::Epochs();
    auto experiment = Experiment::Prepare(config);
    if (!experiment.ok()) {
      std::printf("%-8s prepare failed: %s\n", dataset.c_str(),
                  experiment.status().ToString().c_str());
      continue;
    }
    run_cell(dataset, **experiment);
  }

  // The learnability payoff concentrates where the priors mislead: under
  // distribution shift the rule expectations come from the *source* domain
  // and training must re-weight them for the target (Sec. 7.2).
  struct OodCase {
    const char* source;
    const char* target;
  };
  for (const OodCase& ood : {OodCase{"DA", "DS"}, OodCase{"AB", "AG"}}) {
    ExperimentConfig config;
    config.dataset = ood.source;
    config.scale = bench::Scale();
    config.seed = bench::Seed();
    config.risk_trainer.epochs = bench::Epochs();
    auto experiment = Experiment::PrepareOod(config, ood.target);
    if (!experiment.ok()) continue;
    run_cell(std::string(ood.source) + "2" + ood.target, **experiment);
  }

  std::printf("\nexpected shape: training never hurts materially; the gain "
              "is ~0 when the statistical priors already fit the workload "
              "and grows (largest on the OOD rows) when source-domain priors "
              "must be re-weighted for the target -- the 'learnable' in "
              "LearnRisk\n");
  return 0;
}
