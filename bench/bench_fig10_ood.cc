// Copyright 2026 The LearnRisk Authors
//
// Figure 10 reproduction: out-of-distribution risk analysis. The classifier
// trains on a source dataset; risk training (validation) and test come from
// a different dataset: DA2DS (DBLP-ACM -> DBLP-Scholar) and AB2AG (Abt-Buy
// -> Amazon-Google). LearnRisk should stay high while the non-learnable
// alternatives fluctuate (paper Sec. 7.2).

#include <cstdio>
#include <map>
#include <string>

#include "bench_util.h"
#include "eval/experiment.h"

int main() {
  using namespace learnrisk;  // NOLINT
  bench::PrintBanner("Figure 10: out-of-distribution evaluation",
                     bench::PaperKnobs(bench::Epochs()));

  struct OodCase {
    const char* source;
    const char* target;
    std::map<std::string, double> paper;
  };
  const OodCase cases[] = {
      {"DA", "DS",
       {{"Baseline", 0.618}, {"Uncertainty", 0.799}, {"TrustScore", 0.921},
        {"StaticRisk", 0.720}, {"LearnRisk", 0.991}}},
      {"AB", "AG",
       {{"Baseline", 0.799}, {"Uncertainty", 0.694}, {"TrustScore", 0.548},
        {"StaticRisk", 0.872}, {"LearnRisk", 0.939}}},
  };

  for (const OodCase& ood : cases) {
    ExperimentConfig config;
    config.dataset = ood.source;
    config.scale = bench::Scale();
    config.seed = bench::Seed();
    config.risk_trainer.epochs = bench::Epochs();
    auto experiment = Experiment::PrepareOod(config, ood.target);
    if (!experiment.ok()) {
      std::printf("[%s2%s] prepare failed: %s\n", ood.source, ood.target,
                  experiment.status().ToString().c_str());
      continue;
    }
    Experiment& e = **experiment;
    const auto cm = e.TestConfusion();
    std::printf("\n%s2%s: test=%zu mislabeled=%zu classifier_f1=%.3f "
                "(degraded vs in-distribution, as the paper observes)\n",
                ood.source, ood.target, e.split().test.size(),
                e.NumTestMislabeled(), cm.F1());

    auto report = [&](const MethodResult& r) {
      const auto it = ood.paper.find(r.name);
      bench::PrintPaperMeasured(r.name.c_str(),
                                it == ood.paper.end() ? 0.0 : it->second,
                                r.auroc);
    };
    report(e.RunBaseline());
    auto uncertainty = e.RunUncertainty();
    if (uncertainty.ok()) report(*uncertainty);
    auto trust = e.RunTrustScore();
    if (trust.ok()) report(*trust);
    auto static_risk = e.RunStaticRisk();
    if (static_risk.ok()) report(*static_risk);
    auto learnrisk = e.RunLearnRisk();
    if (learnrisk.ok()) report(*learnrisk);
  }
  return 0;
}
