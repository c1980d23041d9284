// Copyright 2026 The LearnRisk Authors
//
// Figure 13 reproduction: scalability on DS. (a) runtime of one-sided rule
// generation vs classifier-training size; (b) runtime of risk-model training
// vs risk-training size. The paper's claim is the *shape* — approximately
// linear growth — which holds at any absolute scale (their testbed reports
// minutes; this laptop-scale harness reports seconds).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "eval/experiment.h"

int main() {
  using namespace learnrisk;  // NOLINT
  const size_t epochs = std::min<size_t>(bench::Epochs(), 300);
  bench::PrintBanner("Figure 13: scalability of rule generation and risk "
                     "training (DS)",
                     bench::PaperKnobs(epochs));

  ExperimentConfig config;
  config.dataset = "DS";
  config.scale = bench::Scale();
  config.seed = bench::Seed();
  // Large train portion so we can sweep training sizes upward.
  config.train_ratio = 6.0;
  config.valid_ratio = 2.0;
  config.test_ratio = 2.0;
  // Fixed medium epoch count: Fig 13(b) sweeps data size, not epochs.
  config.risk_trainer.epochs = epochs;

  auto experiment = Experiment::Prepare(config);
  if (!experiment.ok()) {
    std::printf("prepare failed: %s\n",
                experiment.status().ToString().c_str());
    return 1;
  }
  Experiment& e = **experiment;
  Rng rng(bench::Seed() + 9);

  // (a) rule generation runtime vs training size.
  std::printf("\n(a) rule-generation runtime vs training size "
              "(paper: ~20-35 min over 2k-12k; expect linear shape):\n");
  std::printf("  %10s %12s %10s\n", "train_size", "runtime_ms", "rules");
  const std::vector<size_t>& train = e.split().train;
  for (double frac : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    const size_t n = static_cast<size_t>(static_cast<double>(train.size()) * frac);
    if (n < 100) continue;
    std::vector<size_t> subset(train.begin(), train.begin() + static_cast<long>(n));
    FeatureMatrix sub_features = GatherRows(e.features(), subset);
    std::vector<uint8_t> sub_labels;
    for (size_t i : subset) sub_labels.push_back(e.truth_labels()[i]);
    Timer timer;
    auto rules = OneSidedForest::Generate(sub_features, sub_labels,
                                          e.config().rules);
    const double ms = timer.ElapsedMillis();
    std::printf("  %10zu %12.1f %10zu\n", n, ms,
                rules.ok() ? rules->size() : 0);
  }

  // (b) risk-training runtime vs risk-training size.
  std::printf("\n(b) risk-model training runtime vs risk-training size "
              "(paper: ~linear up to 8k; expect linear shape):\n");
  std::printf("  %10s %12s %10s\n", "risk_size", "runtime_ms", "auroc");
  const std::vector<size_t>& valid = e.split().valid;
  for (double frac : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    const size_t n = static_cast<size_t>(static_cast<double>(valid.size()) * frac);
    if (n < 50) continue;
    std::vector<size_t> subset = valid;
    rng.Shuffle(&subset);
    subset.resize(n);
    Timer timer;
    auto result = e.RunLearnRiskOn(subset, e.config().risk_model,
                                   e.config().risk_trainer);
    const double ms = timer.ElapsedMillis();
    std::printf("  %10zu %12.1f %10.3f\n", n, ms,
                result.ok() ? result->auroc : 0.0);
  }
  return 0;
}
