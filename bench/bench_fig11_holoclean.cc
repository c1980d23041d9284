// Copyright 2026 The LearnRisk Authors
//
// Figure 11 reproduction: LearnRisk vs the HoloClean adaptation on all four
// datasets. As in the paper, each dataset is evaluated on five random
// 1000-pair subsets of the test data (2000 for SG) and the AUROCs are
// averaged; the forest's labeling-rule budget matches LearnRisk's one-sided
// rule count.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "eval/experiment.h"

int main() {
  using namespace learnrisk;  // NOLINT
  bench::PrintBanner(
      "Figure 11: LearnRisk vs HoloClean (5 random test subsets averaged)",
      bench::PaperKnobs(bench::Epochs()));

  struct Case {
    const char* dataset;
    size_t subset;
    double paper_holoclean;
    double paper_learnrisk;
  };
  const Case cases[] = {{"DS", 1000, 0.908, 0.972},
                        {"AB", 1000, 0.910, 0.968},
                        {"AG", 1000, 0.880, 0.929},
                        {"SG", 2000, 0.929, 0.986}};

  for (const Case& c : cases) {
    ExperimentConfig config;
    config.dataset = c.dataset;
    config.scale = bench::Scale();
    config.seed = bench::Seed();
    config.risk_trainer.epochs = bench::Epochs();
    auto experiment = Experiment::Prepare(config);
    if (!experiment.ok()) {
      std::printf("[%s] prepare failed: %s\n", c.dataset,
                  experiment.status().ToString().c_str());
      continue;
    }
    Experiment& e = **experiment;
    const std::vector<size_t> full_test = e.split().test;

    Rng rng(bench::Seed() + 5);
    double holo_sum = 0.0;
    double learn_sum = 0.0;
    int runs = 0;
    for (int s = 0; s < 5; ++s) {
      std::vector<size_t> pool = full_test;
      rng.Shuffle(&pool);
      if (pool.size() > c.subset) pool.resize(c.subset);
      e.set_test_indices(pool);
      auto holo = e.RunHoloClean();
      auto learn = e.RunLearnRisk();
      if (!holo.ok() || !learn.ok()) continue;
      holo_sum += holo->auroc;
      learn_sum += learn->auroc;
      ++runs;
    }
    e.set_test_indices(full_test);
    if (runs == 0) continue;
    std::printf("\n%s (%zu-pair subsets, %d runs):\n", c.dataset, c.subset,
                runs);
    bench::PrintPaperMeasured("HoloClean", c.paper_holoclean, holo_sum / runs);
    bench::PrintPaperMeasured("LearnRisk", c.paper_learnrisk,
                              learn_sum / runs);
  }
  return 0;
}
