// Copyright 2026 The LearnRisk Authors
//
// Trainer bench: the autodiff-tape reference trainer
// (tests/reference/tape_risk.h) vs. RiskTrainer's batched analytic path on
// the same seeded workload (default 64 rules / 10k risk-training pairs, the
// Fig. 13 scalability regime). Prints a table and writes BENCH_trainer.json
// with epochs/sec, pairs/sec, the tape arena high-water mark, and the max
// per-epoch loss divergence between the two paths, so later PRs have a perf
// trajectory to compare against.
//
// Env knobs:
//   LEARNRISK_BENCH_RULES   rule count            (default 64)
//   LEARNRISK_BENCH_PAIRS   risk-training pairs   (default 10000)
//   LEARNRISK_BENCH_EPOCHS  epochs per timed run  (default 30)

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "reference/tape_risk.h"
#include "risk/risk_model.h"
#include "risk/trainer.h"

namespace {

using namespace learnrisk;  // NOLINT

RiskModel MakeModel(size_t num_rules, uint64_t seed) {
  Rng rng(seed);
  std::vector<Rule> rules(num_rules);
  std::vector<double> expectations(num_rules);
  std::vector<size_t> support(num_rules);
  for (size_t j = 0; j < num_rules; ++j) {
    rules[j].predicates = {{j, "m", true, 0.5}};
    rules[j].label = rng.Bernoulli(0.5) ? RuleClass::kMatching
                                        : RuleClass::kUnmatching;
    expectations[j] = rng.Uniform(0.15, 0.85);
    support[j] = 20 + rng.Index(200);
  }
  return RiskModel(RiskFeatureSet::FromParts(std::move(rules),
                                             std::move(expectations),
                                             std::move(support)));
}

/// Synthetic risk-training set: each pair activates a handful of rules;
/// mislabeling correlates with the low-expectation rules so there is real
/// ranking signal to learn.
void MakeWorkload(size_t num_pairs, size_t num_rules, uint64_t seed,
                  const RiskModel& model, RiskActivation* act,
                  std::vector<uint8_t>* mislabeled) {
  Rng rng(seed);
  act->active.resize(num_pairs);
  act->classifier_output.resize(num_pairs);
  act->machine_label.resize(num_pairs);
  mislabeled->resize(num_pairs);
  for (size_t i = 0; i < num_pairs; ++i) {
    double risk_drive = 0.0;
    const size_t n_active = 1 + rng.Index(5);
    for (size_t k = 0; k < n_active; ++k) {
      const uint32_t j = static_cast<uint32_t>(rng.Index(num_rules));
      act->active[i].push_back(j);
      risk_drive += 1.0 - model.features().expectation(j);
    }
    act->classifier_output[i] = rng.Uniform(0.55, 0.95);
    act->machine_label[i] = 1;
    (*mislabeled)[i] =
        rng.Uniform() < risk_drive / static_cast<double>(1 + n_active) ? 1
                                                                       : 0;
  }
}

struct RunResult {
  RiskTrainerStats stats;
  std::vector<double> loss;
  size_t peak_tape_nodes = 0;  ///< tape reference only
};

RunResult RunAnalytic(size_t epochs, const RiskModel& base,
                      const RiskActivation& act,
                      const std::vector<uint8_t>& mislabeled) {
  RiskModel model = base;
  RiskTrainerOptions options;
  options.epochs = epochs;
  RiskTrainer trainer(options);
  const Status status = trainer.Train(&model, act, mislabeled);
  if (!status.ok()) {
    std::printf("train failed: %s\n", status.ToString().c_str());
  }
  return {trainer.stats(), trainer.loss_history()};
}

/// The tape reference reports only losses and its arena high-water mark;
/// its seeded sampling draws the same rank pairs as the analytic run, so
/// that run's pair count is passed in.
RunResult RunTape(size_t epochs, size_t rank_pairs, const RiskModel& base,
                  const RiskActivation& act,
                  const std::vector<uint8_t>& mislabeled) {
  RiskModel model = base;
  RiskTrainerOptions options;
  options.epochs = epochs;
  RunResult result;
  Timer timer;
  result.loss = reference::TapeTrain(&model, act, mislabeled, options,
                                     &result.peak_tape_nodes);
  result.stats.train_seconds = timer.ElapsedSeconds();
  result.stats.epochs = result.loss.size();
  result.stats.rank_pairs = rank_pairs;
  return result;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Trainer throughput: tape reference vs. analytic training path",
      bench::Format("seed=%llu",
                    static_cast<unsigned long long>(bench::Seed())));

  const size_t num_rules = bench::EnvSize("LEARNRISK_BENCH_RULES", 64);
  const size_t num_pairs = bench::EnvSize("LEARNRISK_BENCH_PAIRS", 10000);
  const size_t epochs = bench::EnvSize("LEARNRISK_BENCH_EPOCHS", 30);

  RiskModel model = MakeModel(num_rules, bench::Seed());
  RiskActivation act;
  std::vector<uint8_t> mislabeled;
  MakeWorkload(num_pairs, num_rules, bench::Seed() + 1, model, &act,
               &mislabeled);
  size_t n_mis = 0;
  for (uint8_t f : mislabeled) n_mis += f;
  std::printf("workload: %zu rules, %zu pairs (%zu mislabeled), %zu epochs\n",
              num_rules, num_pairs, n_mis, epochs);

  // Warm-up (pool spin-up, page faults) outside the timed runs.
  RunAnalytic(2, model, act, mislabeled);

  const RunResult fast = RunAnalytic(epochs, model, act, mislabeled);
  const RunResult tape =
      RunTape(epochs, fast.stats.rank_pairs, model, act, mislabeled);

  double max_loss_diff = 0.0;
  for (size_t e = 0; e < tape.loss.size() && e < fast.loss.size(); ++e) {
    max_loss_diff =
        std::max(max_loss_diff, std::fabs(tape.loss[e] - fast.loss[e]));
  }
  const double speedup = tape.stats.EpochsPerSec() > 0.0
                             ? fast.stats.EpochsPerSec() /
                                   tape.stats.EpochsPerSec()
                             : 0.0;

  std::printf("\n  %-10s %12s %14s %16s\n", "path", "epochs/sec",
              "pairs/sec", "peak tape nodes");
  std::printf("  %-10s %12.2f %14.0f %16zu\n", "tape",
              tape.stats.EpochsPerSec(), tape.stats.PairsPerSec(),
              tape.peak_tape_nodes);
  std::printf("  %-10s %12.2f %14.0f %16zu\n", "analytic",
              fast.stats.EpochsPerSec(), fast.stats.PairsPerSec(),
              fast.peak_tape_nodes);
  std::printf("\n  speedup: %.1fx   max per-epoch loss divergence: %.3g\n",
              speedup, max_loss_diff);

  FILE* json = std::fopen("BENCH_trainer.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"rules\": %zu,\n"
                 "  \"pairs\": %zu,\n"
                 "  \"epochs\": %zu,\n"
                 "  \"tape_epochs_per_sec\": %.4f,\n"
                 "  \"tape_pairs_per_sec\": %.1f,\n"
                 "  \"peak_tape_nodes\": %zu,\n"
                 "  \"fast_epochs_per_sec\": %.4f,\n"
                 "  \"fast_pairs_per_sec\": %.1f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"max_epoch_loss_divergence\": %.3g\n"
                 "}\n",
                 num_rules, num_pairs, epochs, tape.stats.EpochsPerSec(),
                 tape.stats.PairsPerSec(), tape.peak_tape_nodes,
                 fast.stats.EpochsPerSec(), fast.stats.PairsPerSec(),
                 speedup, max_loss_diff);
    std::fclose(json);
    std::printf("  wrote BENCH_trainer.json\n");
  }
  return 0;
}
