// Copyright 2026 The LearnRisk Authors
// Parity between the analytic training path and the autodiff-tape reference
// (tests/reference/tape_risk.h): RiskScoreBatch jacobians vs. tape backward
// vs. central finite differences on randomized models, and full seeded
// training trajectories (per-epoch loss + final parameters) across both
// paths and all risk metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.h"
#include "reference/tape_risk.h"
#include "risk/risk_model.h"
#include "risk/trainer.h"

namespace learnrisk {
namespace {

/// A randomized model over `num_rules` rules with expectations in
/// [0.15, 0.85] and perturbed raw parameters.
RiskModel RandomModel(size_t num_rules, uint64_t seed,
                      RiskMetric metric = RiskMetric::kVaR,
                      bool use_classifier_feature = true) {
  Rng rng(seed);
  std::vector<Rule> rules(num_rules);
  std::vector<double> expectations(num_rules);
  std::vector<size_t> support(num_rules);
  for (size_t j = 0; j < num_rules; ++j) {
    rules[j].predicates = {{j, "m", true, 0.5}};
    rules[j].label = rng.Bernoulli(0.5) ? RuleClass::kMatching
                                        : RuleClass::kUnmatching;
    expectations[j] = rng.Uniform(0.15, 0.85);
    support[j] = 10 + rng.Index(100);
  }
  RiskModelOptions options;
  options.metric = metric;
  options.use_classifier_feature = use_classifier_feature;
  RiskModel model(RiskFeatureSet::FromParts(std::move(rules),
                                            std::move(expectations),
                                            std::move(support)),
                  options);
  // Perturb every raw parameter away from its symmetric initialization.
  std::vector<double> theta = model.theta();
  std::vector<double> phi = model.phi();
  std::vector<double> phi_out = model.phi_out();
  for (double& t : theta) t += rng.Uniform(-1.0, 1.0);
  for (double& p : phi) p += rng.Uniform(-1.0, 1.0);
  for (double& p : phi_out) p += rng.Uniform(-1.0, 1.0);
  model.ApplyUpdate(theta, phi, model.alpha_raw() + rng.Uniform(-0.3, 0.3),
                    model.beta_raw() + rng.Uniform(-0.3, 0.3), phi_out);
  return model;
}

RiskActivation RandomActivation(size_t n, size_t num_rules, uint64_t seed) {
  Rng rng(seed);
  RiskActivation act;
  act.active.resize(n);
  act.classifier_output.resize(n);
  act.machine_label.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < num_rules; ++j) {
      if (rng.Bernoulli(0.3)) act.active[i].push_back(
          static_cast<uint32_t>(j));
    }
    act.classifier_output[i] = rng.Uniform(0.1, 0.9);
    act.machine_label[i] = rng.Bernoulli(0.5) ? 1 : 0;
  }
  return act;
}

std::vector<double> FlatParams(const RiskModel& model) {
  std::vector<double> p;
  p.insert(p.end(), model.theta().begin(), model.theta().end());
  p.insert(p.end(), model.phi().begin(), model.phi().end());
  p.push_back(model.alpha_raw());
  p.push_back(model.beta_raw());
  p.insert(p.end(), model.phi_out().begin(), model.phi_out().end());
  return p;
}

void ApplyFlat(const std::vector<double>& p, RiskModel* model) {
  const size_t num_rules = model->num_rules();
  std::vector<double> theta(p.begin(), p.begin() + num_rules);
  std::vector<double> phi(p.begin() + num_rules,
                          p.begin() + 2 * num_rules);
  std::vector<double> phi_out(p.begin() + model->phi_out_offset(), p.end());
  model->ApplyUpdate(theta, phi, p[model->alpha_offset()],
                     p[model->beta_offset()], phi_out);
}

/// Tape gradient of one pair's risk score w.r.t. the flat parameter vector.
std::vector<double> TapeGradient(const RiskModel& model,
                                 const RiskActivation& act, size_t i,
                                 double* value) {
  Tape tape;
  reference::TapeParams params = reference::MakeTapeParams(model, &tape);
  Var score = reference::RiskScoreOnTape(model, &tape, params, act.active[i],
                                         act.classifier_output[i],
                                         act.machine_label[i]);
  tape.Backward(score);
  *value = score.value();
  std::vector<double> grad;
  for (Var v : params.theta) grad.push_back(tape.Gradient(v));
  for (Var v : params.phi) grad.push_back(tape.Gradient(v));
  grad.push_back(tape.Gradient(params.alpha_raw));
  grad.push_back(tape.Gradient(params.beta_raw));
  for (Var v : params.phi_out) grad.push_back(tape.Gradient(v));
  return grad;
}

struct ParityCase {
  RiskMetric metric;
  bool use_classifier_feature;
};

class GradientParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(GradientParity, AnalyticMatchesTapeAndFiniteDifferences) {
  const ParityCase c = GetParam();
  constexpr size_t kRules = 7;
  constexpr size_t kPairs = 24;
  for (uint64_t seed : {11u, 29u, 47u}) {
    RiskModel model =
        RandomModel(kRules, seed, c.metric, c.use_classifier_feature);
    RiskActivation act = RandomActivation(kPairs, kRules, seed + 1);
    std::vector<size_t> indices(kPairs);
    for (size_t i = 0; i < kPairs; ++i) indices[i] = i;

    RiskModel::BatchScore batch;
    model.RiskScoreBatch(act, indices, &batch);
    ASSERT_EQ(batch.num_params, model.num_params());

    const std::vector<double> base = FlatParams(model);
    for (size_t i = 0; i < kPairs; ++i) {
      // Batch value and tape value agree.
      double tape_value = 0.0;
      const std::vector<double> tape_grad =
          TapeGradient(model, act, i, &tape_value);
      EXPECT_NEAR(batch.value[i], tape_value, 1e-12) << "pair " << i;
      if (c.metric == RiskMetric::kVaR) {
        // The scalar path computes the same VaR; CVaR/Expectation rank by a
        // surrogate on tape, so only VaR values are directly comparable.
        EXPECT_NEAR(batch.value[i],
                    model.RiskScore(act.active[i], act.classifier_output[i],
                                    act.machine_label[i]),
                    1e-9);
      }

      const std::vector<double> jac = batch.DenseRow(i, kRules);
      for (size_t p = 0; p < batch.num_params; ++p) {
        // Analytic vs tape: both are exact chain rules, so 1e-6 absolute
        // parity is generous.
        EXPECT_NEAR(jac[p], tape_grad[p],
                    1e-6 * std::max(1.0, std::fabs(tape_grad[p])))
            << "pair " << i << " param " << p;

        // Analytic vs central finite differences of the batch value.
        const double h = 1e-5;
        RiskModel probe = model;
        std::vector<double> perturbed = base;
        RiskModel::BatchScore plus, minus;
        perturbed[p] = base[p] + h;
        ApplyFlat(perturbed, &probe);
        probe.RiskScoreBatch(act, {i}, &plus);
        perturbed[p] = base[p] - h;
        ApplyFlat(perturbed, &probe);
        probe.RiskScoreBatch(act, {i}, &minus);
        const double fd = (plus.value[0] - minus.value[0]) / (2.0 * h);
        EXPECT_NEAR(jac[p], fd, 1e-5 * std::max(1.0, std::fabs(fd)))
            << "pair " << i << " param " << p;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Metrics, GradientParity,
    ::testing::Values(ParityCase{RiskMetric::kVaR, true},
                      ParityCase{RiskMetric::kVaR, false},
                      ParityCase{RiskMetric::kCVaR, true},
                      ParityCase{RiskMetric::kExpectation, true}),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      std::string name;
      switch (info.param.metric) {
        case RiskMetric::kVaR: name = "VaR"; break;
        case RiskMetric::kCVaR: name = "CVaR"; break;
        case RiskMetric::kExpectation: name = "Expectation"; break;
      }
      return name + (info.param.use_classifier_feature ? "" : "_NoOutput");
    });

TEST(TrainingParity, SeededLossTrajectoriesMatch) {
  constexpr size_t kRules = 6;
  constexpr size_t kPairs = 300;
  RiskActivation act = RandomActivation(kPairs, kRules, 5);
  std::vector<uint8_t> mislabeled(kPairs);
  Rng rng(17);
  for (size_t i = 0; i < kPairs; ++i) {
    mislabeled[i] = rng.Bernoulli(0.3) ? 1 : 0;
  }

  RiskTrainerOptions opts;
  opts.epochs = 60;

  RiskModel fast_model = RandomModel(kRules, 3);
  RiskModel tape_model = RandomModel(kRules, 3);
  RiskTrainer fast_trainer(opts);
  ASSERT_TRUE(fast_trainer.Train(&fast_model, act, mislabeled).ok());
  size_t peak_tape_nodes = 0;
  const std::vector<double> tape_loss = reference::TapeTrain(
      &tape_model, act, mislabeled, opts, &peak_tape_nodes);

  ASSERT_EQ(fast_trainer.loss_history().size(), tape_loss.size());
  for (size_t e = 0; e < fast_trainer.loss_history().size(); ++e) {
    EXPECT_NEAR(fast_trainer.loss_history()[e], tape_loss[e], 1e-6)
        << "epoch " << e;
  }
  for (size_t j = 0; j < kRules; ++j) {
    EXPECT_NEAR(fast_model.theta()[j], tape_model.theta()[j], 1e-5);
    EXPECT_NEAR(fast_model.phi()[j], tape_model.phi()[j], 1e-5);
  }
  EXPECT_NEAR(fast_model.alpha_raw(), tape_model.alpha_raw(), 1e-5);
  EXPECT_NEAR(fast_model.beta_raw(), tape_model.beta_raw(), 1e-5);

  // Stats: the tape reference reports its arena high-water mark.
  EXPECT_GT(peak_tape_nodes, 0u);
  EXPECT_EQ(fast_trainer.stats().epochs, opts.epochs);
  EXPECT_GT(fast_trainer.stats().rank_pairs, 0u);
}

TEST(TrainingParity, FastPathIsDeterministic) {
  constexpr size_t kRules = 5;
  RiskActivation act = RandomActivation(200, kRules, 8);
  std::vector<uint8_t> mislabeled(200);
  Rng rng(9);
  for (size_t i = 0; i < 200; ++i) mislabeled[i] = rng.Bernoulli(0.25);

  RiskTrainerOptions opts;
  opts.epochs = 40;
  RiskModel a = RandomModel(kRules, 2);
  RiskModel b = RandomModel(kRules, 2);
  RiskTrainer ta(opts);
  RiskTrainer tb(opts);
  ASSERT_TRUE(ta.Train(&a, act, mislabeled).ok());
  ASSERT_TRUE(tb.Train(&b, act, mislabeled).ok());
  EXPECT_EQ(a.theta(), b.theta());
  EXPECT_EQ(a.phi(), b.phi());
  EXPECT_EQ(ta.loss_history(), tb.loss_history());
}

}  // namespace
}  // namespace learnrisk
