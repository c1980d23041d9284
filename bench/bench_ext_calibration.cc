// Copyright 2026 The LearnRisk Authors
//
// Extension bench (related work, Sec. 2): confidence calibration vs risk
// analysis. Platt scaling makes the classifier outputs better calibrated
// (ECE drops) but, being monotone, barely moves mislabel-detection AUROC —
// while LearnRisk improves it outright. Run on DS.

#include <cstdio>

#include "baselines/simple_baselines.h"
#include "bench_util.h"
#include "classifier/calibration.h"
#include "eval/experiment.h"

int main() {
  using namespace learnrisk;  // NOLINT
  bench::PrintBanner(
      "Extension: calibration is no substitute for risk analysis (DS)",
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

  // Calibrate on the validation slice.
  std::vector<double> valid_probs;
  std::vector<uint8_t> valid_truth;
  for (size_t i : e.split().valid) {
    valid_probs.push_back(e.classifier_probs()[i]);
    valid_truth.push_back(e.truth_labels()[i]);
  }
  PlattCalibrator calibrator;
  if (!calibrator.Fit(valid_probs, valid_truth).ok()) return 1;

  std::vector<double> test_probs;
  std::vector<uint8_t> test_truth;
  std::vector<uint8_t> test_mislabeled;
  for (size_t i : e.split().test) {
    test_probs.push_back(e.classifier_probs()[i]);
    test_truth.push_back(e.truth_labels()[i]);
    test_mislabeled.push_back(e.mislabel_flags()[i]);
  }
  const std::vector<double> calibrated = calibrator.CalibrateAll(test_probs);

  std::printf("\nexpected calibration error: raw=%.3f calibrated=%.3f "
              "(calibration works)\n",
              PlattCalibrator::ExpectedCalibrationError(test_probs,
                                                        test_truth),
              PlattCalibrator::ExpectedCalibrationError(calibrated,
                                                        test_truth));
  std::printf("mislabel-detection AUROC:\n");
  std::printf("  ambiguity on raw outputs:        %.3f\n",
              Auroc(AmbiguityRisk(test_probs), test_mislabeled));
  std::printf("  ambiguity on calibrated outputs: %.3f "
              "(monotone map, ranking ~unchanged)\n",
              Auroc(AmbiguityRisk(calibrated), test_mislabeled));
  auto learnrisk = e.RunLearnRisk();
  if (learnrisk.ok()) {
    std::printf("  LearnRisk:                       %.3f\n",
                learnrisk->auroc);
  }
  return 0;
}
