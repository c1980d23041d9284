// Copyright 2026 The LearnRisk Authors
//
// Figure 12 reproduction: sensitivity of LearnRisk to the amount of risk
// training data on DS and AB. Classifier training uses 30% and test 50% of
// the workload; the risk-training set is drawn from the remaining 20%
// (a) by random sampling at 1/5/10/15/20% of the workload, and
// (b) by active (ambiguity-ranked) selection of 100..400 pairs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "baselines/simple_baselines.h"
#include "common/random.h"
#include "eval/experiment.h"

namespace {

using namespace learnrisk;  // NOLINT

void RunPanel(Experiment& e, const char* dataset, bool random_sampling,
              const std::vector<double>& paper_values) {
  const std::vector<size_t>& valid = e.split().valid;
  const size_t workload_size = e.workload().size();
  Rng rng(learnrisk::bench::Seed() + 3);

  std::printf("\n%s (%s selection):\n", dataset,
              random_sampling ? "random" : "active");
  if (random_sampling) {
    const double percents[] = {0.01, 0.05, 0.10, 0.15, 0.20};
    for (size_t k = 0; k < 5; ++k) {
      size_t want = static_cast<size_t>(
          std::llround(percents[k] * static_cast<double>(workload_size)));
      want = std::min(want, valid.size());
      std::vector<size_t> pool = valid;
      rng.Shuffle(&pool);
      pool.resize(std::max<size_t>(want, 20));
      auto result = e.RunLearnRiskOn(pool, e.config().risk_model,
                                     e.config().risk_trainer);
      if (!result.ok()) continue;
      char label[32];
      std::snprintf(label, sizeof(label), "%2.0f%% (n=%zu)",
                    percents[k] * 100, pool.size());
      learnrisk::bench::PrintPaperMeasured(label, paper_values[k],
                                           result->auroc);
    }
  } else {
    // Active: highest-ambiguity validation pairs first.
    std::vector<size_t> ranked = valid;
    std::vector<double> probs;
    probs.reserve(valid.size());
    for (size_t i : valid) probs.push_back(e.classifier_probs()[i]);
    const std::vector<double> ambiguity = AmbiguityRisk(probs);
    std::vector<size_t> order(valid.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return ambiguity[a] > ambiguity[b];
    });
    const size_t sizes[] = {100, 200, 300, 400};
    for (size_t k = 0; k < 4; ++k) {
      const size_t want = std::min<size_t>(sizes[k], valid.size());
      std::vector<size_t> pool;
      for (size_t i = 0; i < want; ++i) pool.push_back(valid[order[i]]);
      auto result = e.RunLearnRiskOn(pool, e.config().risk_model,
                                     e.config().risk_trainer);
      if (!result.ok()) continue;
      char label[32];
      std::snprintf(label, sizeof(label), "#%zu", sizes[k]);
      learnrisk::bench::PrintPaperMeasured(label, paper_values[k],
                                           result->auroc);
    }
  }
}

}  // namespace

int main() {
  learnrisk::bench::PrintBanner(
      "Figure 12: LearnRisk sensitivity to risk-training size (DS, AB)",
      learnrisk::bench::PaperKnobs(learnrisk::bench::Epochs()));

  struct Panel {
    const char* dataset;
    std::vector<double> paper_random;
    std::vector<double> paper_active;
  };
  const Panel panels[] = {
      {"DS", {0.964, 0.969, 0.970, 0.975, 0.973},
       {0.956, 0.956, 0.958, 0.955}},
      {"AB", {0.939, 0.954, 0.958, 0.957, 0.959},
       {0.919, 0.930, 0.931, 0.935}},
  };

  for (const Panel& panel : panels) {
    ExperimentConfig config;
    config.dataset = panel.dataset;
    config.scale = learnrisk::bench::Scale();
    config.seed = learnrisk::bench::Seed();
    // Fig. 12 fixes classifier train at 30% and test at 50%.
    config.train_ratio = 3.0;
    config.valid_ratio = 2.0;
    config.test_ratio = 5.0;
    config.risk_trainer.epochs = learnrisk::bench::Epochs();
    auto experiment = Experiment::Prepare(config);
    if (!experiment.ok()) {
      std::printf("[%s] prepare failed: %s\n", panel.dataset,
                  experiment.status().ToString().c_str());
      continue;
    }
    RunPanel(**experiment, panel.dataset, /*random_sampling=*/true,
             panel.paper_random);
    RunPanel(**experiment, panel.dataset, /*random_sampling=*/false,
             panel.paper_active);
  }
  std::printf("\nexpected shape: AUROC roughly flat across risk-training "
              "sizes; even 1%% / 100 actively-chosen pairs trains a usable "
              "risk model (paper Sec. 7.4)\n");
  return 0;
}
