// Copyright 2026 The LearnRisk Authors
//
// Ablation: the risk metric read off the pair distribution (DESIGN.md §5).
// The paper argues (Sec. 4.2) that expected return alone underuses the
// distribution — fluctuation (variance) carries signal — and picks VaR while
// noting other metrics plug in. This bench compares VaR, CVaR and
// expectation-only ranking on DS and AB.

#include <cstdio>

#include "bench_util.h"
#include "eval/experiment.h"

int main() {
  using namespace learnrisk;  // NOLINT
  bench::PrintBanner("Ablation: risk metric (VaR vs CVaR vs expectation)",
                     bench::PaperKnobs(bench::Epochs()));

  for (const char* dataset : {"DS", "AB"}) {
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
    std::printf("\n%s:\n", dataset);
    struct Variant {
      const char* name;
      RiskMetric metric;
    };
    for (const Variant& v :
         {Variant{"VaR", RiskMetric::kVaR},
          Variant{"CVaR", RiskMetric::kCVaR},
          Variant{"Expectation", RiskMetric::kExpectation}}) {
      RiskModelOptions model = e.config().risk_model;
      model.metric = v.metric;
      auto result = e.RunLearnRiskOn(e.split().valid, model,
                                     e.config().risk_trainer, v.name);
      if (result.ok()) {
        std::printf("  %-12s auroc=%.3f\n", v.name, result->auroc);
      }
    }
  }
  std::printf("\nexpected shape: VaR and CVaR close, both >= "
              "expectation-only (variance carries real signal)\n");
  return 0;
}
