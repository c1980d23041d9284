// Copyright 2026 The LearnRisk Authors
// Tests for the online-serving subsystem: the risk kernel (offline Score,
// serving ScoreRows, Explain) bit-identical to the raw-parameter reference
// in test_models.h, ServingEngine request validation and explanations,
// hot-swap safety under concurrent readers, and model_io persistence of a
// published snapshot.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "common/random.h"
#include "reference/naive_activation.h"
#include "risk/model_io.h"
#include "risk/risk_feature.h"
#include "risk/trainer.h"
#include "serve/serving_engine.h"
#include "test_models.h"

namespace learnrisk {
namespace {

constexpr size_t kMetrics = 5;

// A feature set with real rules over kMetrics columns plus randomized
// priors, and a model whose raw parameters are perturbed away from their
// init values so every transform actually matters.
RiskModel MakeModel(uint64_t seed, size_t n_rules) {
  return testutil::MakeModel(seed, n_rules, kMetrics);
}

FeatureMatrix MakeFeatures(uint64_t seed, size_t rows) {
  Rng rng(seed);
  FeatureMatrix features(rows, kMetrics);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t m = 0; m < kMetrics; ++m) features.set(i, m, rng.Uniform());
  }
  return features;
}

std::vector<double> MakeProbs(uint64_t seed, size_t rows) {
  Rng rng(seed);
  std::vector<double> probs(rows);
  for (double& p : probs) p = rng.Uniform();
  return probs;
}

// MakeModel's parameters after a few seeded training epochs on a random
// activation, so the bake must follow RiskTrainer's ApplyUpdate calls.
RiskModel TrainedModel(uint64_t seed, size_t n_rules) {
  RiskModel model = MakeModel(seed, n_rules);
  const RiskActivation data = ComputeActivation(
      model.features(), MakeFeatures(seed + 1, 200), MakeProbs(seed + 2, 200));
  Rng rng(seed + 3);
  std::vector<uint8_t> mislabeled(data.size());
  for (uint8_t& m : mislabeled) m = rng.Bernoulli(0.3) ? 1 : 0;
  RiskTrainerOptions options;
  options.epochs = 20;
  options.learning_rate = 0.05;
  EXPECT_TRUE(RiskTrainer(options).Train(&model, data, mislabeled).ok());
  return model;
}

// Offline Score and the serving path (ServingEngine::Score, i.e. the
// published snapshot's ScoreRows) both bit-identical to the raw-parameter
// reference, for a perturbed model, a trained one and a model_io round trip.
TEST(RiskKernelTest, BitIdenticalToReference) {
  const RiskModel perturbed = MakeModel(3, 48);
  const RiskModel trained = TrainedModel(7, 48);
  const RiskModel reloaded =
      DeserializeRiskModel(SerializeRiskModel(trained)).MoveValueOrDie();
  ASSERT_NE(trained.theta(), MakeModel(7, 48).theta());  // training moved it
  const FeatureMatrix features = MakeFeatures(4, 400);
  const std::vector<double> probs = MakeProbs(5, 400);
  for (const RiskModel* model : {&perturbed, &trained, &reloaded}) {
    const RiskActivation activation =
        reference::ComputeActivationNaive(model->features(), features, probs);
    const std::vector<double> offline = model->Score(activation);

    ServingEngine engine;
    engine.Publish(*model);
    ScoreRequest request;
    request.metric_features = &features;
    request.classifier_probs = probs;
    const auto served = engine.Score(request);
    ASSERT_TRUE(served.ok());
    for (size_t i = 0; i < features.rows(); ++i) {
      const double expected = testutil::ReferenceRiskScore(
          *model, activation.active[i], probs[i],
          activation.machine_label[i]);
      ASSERT_EQ(offline[i], expected) << "pair " << i;  // exact, not NEAR
      ASSERT_EQ(served->risk[i], expected) << "pair " << i;
      ASSERT_EQ(served->machine_label[i], activation.machine_label[i]);
    }
  }
}

TEST(RiskKernelTest, BitIdenticalAcrossRiskMetrics) {
  const RiskModel base = MakeModel(11, 32);
  const FeatureMatrix features = MakeFeatures(12, 150);
  const std::vector<double> probs = MakeProbs(13, 150);
  for (RiskMetric metric :
       {RiskMetric::kVaR, RiskMetric::kCVaR, RiskMetric::kExpectation}) {
    for (bool use_classifier_feature : {true, false}) {
      RiskModelOptions options;
      options.metric = metric;
      options.use_classifier_feature = use_classifier_feature;
      RiskModel model(base.features(), options);
      model.ApplyUpdate(base.theta(), base.phi(), base.alpha_raw(),
                        base.beta_raw(), base.phi_out());
      const RiskActivation activation =
          reference::ComputeActivationNaive(model.features(), features, probs);
      const std::vector<double> offline = model.Score(activation);
      std::vector<double> risk(features.rows());
      std::vector<uint8_t> label(features.rows());
      const ScorerSnapshot snapshot(model);
      ScoreScratch scratch;
      snapshot.ScoreRows(features.row(0), features.cols(), probs.data(),
                         features.rows(), 0, &scratch, risk.data(),
                         label.data(), nullptr);
      for (size_t i = 0; i < features.rows(); ++i) {
        const double expected = testutil::ReferenceRiskScore(
            model, activation.active[i], probs[i],
            activation.machine_label[i]);
        ASSERT_EQ(offline[i], expected) << "pair " << i;
        ASSERT_EQ(risk[i], expected) << "pair " << i;
        ASSERT_EQ(label[i], activation.machine_label[i]) << "pair " << i;
      }
    }
  }
}

TEST(ServingEngineTest, RejectsBeforePublishAndValidatesRequests) {
  ServingEngine engine;
  EXPECT_FALSE(engine.has_model());
  EXPECT_EQ(engine.version(), 0u);
  EXPECT_EQ(engine.VersionedSnapshot().second, nullptr);

  const FeatureMatrix features = MakeFeatures(1, 10);
  ScoreRequest request;
  request.metric_features = &features;
  request.classifier_probs = MakeProbs(2, 10);
  EXPECT_TRUE(engine.Score(request).status().IsFailedPrecondition());

  const uint64_t v = engine.Publish(MakeModel(3, 16));
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(engine.has_model());
  EXPECT_EQ(engine.version(), 1u);

  ScoreRequest null_features;
  EXPECT_TRUE(engine.Score(null_features).status().IsInvalidArgument());
  ScoreRequest size_mismatch;
  size_mismatch.metric_features = &features;
  size_mismatch.classifier_probs = MakeProbs(2, 7);
  EXPECT_TRUE(engine.Score(size_mismatch).status().IsInvalidArgument());

  // Rows narrower than the metric columns the rules read are rejected
  // (the compiled evaluator would index past the row otherwise).
  const FeatureMatrix narrow(10, 1);
  ScoreRequest narrow_request;
  narrow_request.metric_features = &narrow;
  narrow_request.classifier_probs = MakeProbs(2, 10);
  EXPECT_TRUE(engine.Score(narrow_request).status().IsInvalidArgument());

  const auto response = engine.Score(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->model_version, 1u);
  EXPECT_EQ(response->risk.size(), 10u);
  EXPECT_TRUE(response->explanations.empty());
}

TEST(RiskKernelTest, ExplainMatchesReference) {
  const RiskModel perturbed = MakeModel(31, 40);
  const RiskModel trained = TrainedModel(37, 40);
  const FeatureMatrix features = MakeFeatures(32, 100);
  const std::vector<double> probs = MakeProbs(33, 100);
  for (const RiskModel* model : {&perturbed, &trained}) {
    const RiskActivation activation =
        reference::ComputeActivationNaive(model->features(), features, probs);
    for (size_t i = 0; i < features.rows(); ++i) {
      const auto expected =
          testutil::ReferenceExplain(*model, activation.active[i], probs[i], 4);
      const auto actual = model->Explain(activation.active[i], probs[i], 4);
      ASSERT_EQ(actual.size(), expected.size()) << "pair " << i;
      for (size_t k = 0; k < expected.size(); ++k) {
        // The model bakes the weight transforms and the rule descriptions;
        // the output must stay exactly the reference's.
        EXPECT_EQ(actual[k].description, expected[k].description);
        ASSERT_EQ(actual[k].weight, expected[k].weight);
        ASSERT_EQ(actual[k].expectation, expected[k].expectation);
        ASSERT_EQ(actual[k].rsd, expected[k].rsd);
      }
    }
  }
}

TEST(ServingEngineTest, RejectsNonFiniteOrOutOfRangeClassifierProbs) {
  ServingEngine engine;
  engine.Publish(MakeModel(41, 16));
  const FeatureMatrix features = MakeFeatures(42, 4);
  ScoreRequest request;
  request.metric_features = &features;

  for (double bad : {std::nan(""), -0.1, 1.5,
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    request.classifier_probs = MakeProbs(43, 4);
    request.classifier_probs[2] = bad;
    const auto response = engine.Score(request);
    EXPECT_TRUE(response.status().IsInvalidArgument()) << "prob " << bad;
  }
  // Boundary values are legal.
  request.classifier_probs = {0.0, 1.0, 0.5, 0.25};
  EXPECT_TRUE(engine.Score(request).ok());
}

TEST(ServingEngineTest, ExplanationsCarryTopKContributions) {
  ServingEngine engine;
  engine.Publish(MakeModel(21, 24));
  const FeatureMatrix features = MakeFeatures(22, 20);
  ScoreRequest request;
  request.metric_features = &features;
  request.classifier_probs = MakeProbs(23, 20);
  request.explain_top_k = 3;
  const auto response = engine.Score(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->explanations.size(), 20u);
  for (const auto& contributions : response->explanations) {
    ASSERT_FALSE(contributions.empty());
    EXPECT_LE(contributions.size(), 3u);
    for (size_t k = 1; k < contributions.size(); ++k) {
      EXPECT_GE(contributions[k - 1].weight, contributions[k].weight);
    }
  }
}

// Readers score a fixed request in a loop while the main thread keeps
// publishing different models. Every response must match one published
// model's expected output exactly and entirely — a torn snapshot (scores
// from a half-swapped model) would mix two expectation vectors and fail the
// element-wise comparison against the version it reports.
TEST(ServingEngineTest, ConcurrentScoreDuringPublishSeesNoTornState) {
  constexpr size_t kModels = 4;
  constexpr size_t kRows = 64;
  constexpr size_t kPublishes = 60;
  constexpr size_t kReaders = 3;

  const FeatureMatrix features = MakeFeatures(100, kRows);
  const std::vector<double> probs = MakeProbs(101, kRows);

  std::vector<RiskModel> models;
  std::vector<std::vector<double>> expected(kModels);
  for (size_t k = 0; k < kModels; ++k) {
    models.push_back(MakeModel(200 + k, 40));
    const RiskActivation act =
        ComputeActivation(models[k].features(), features, probs);
    expected[k] = models[k].Score(act);
  }

  ServingEngine engine;
  // Version v serves model (v - 1) % kModels: publishes go out in
  // round-robin order from this single thread.
  ASSERT_EQ(engine.Publish(models[0]), 1u);

  ScoreRequest request;
  request.metric_features = &features;
  request.classifier_probs = probs;

  std::atomic<bool> stop{false};
  std::atomic<size_t> total_reads{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto response = engine.Score(request);
        if (!response.ok()) {
          failed.store(true);
          return;
        }
        const size_t model_index =
            static_cast<size_t>((response->model_version - 1) % kModels);
        if (response->model_version == 0 ||
            response->risk != expected[model_index]) {
          failed.store(true);
          return;
        }
        total_reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Publish only once a reader has scored, so the publishes overlap reads
  // even when the readers start late on a loaded machine.
  while (total_reads.load() == 0 && !failed.load()) std::this_thread::yield();
  uint64_t last_version = 1;
  for (size_t p = 1; p <= kPublishes; ++p) {
    const uint64_t v = engine.Publish(models[p % kModels]);
    EXPECT_EQ(v, last_version + 1);
    last_version = v;
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(total_reads.load(), 0u);
  EXPECT_EQ(engine.version(), kPublishes + 1);
}

TEST(ServingEngineTest, SnapshotSurvivesSaveLoadRoundtrip) {
  ServingEngine engine;
  engine.Publish(MakeModel(77, 32));
  const FeatureMatrix features = MakeFeatures(78, 120);
  ScoreRequest request;
  request.metric_features = &features;
  request.classifier_probs = MakeProbs(79, 120);
  const auto before = engine.Score(request);
  ASSERT_TRUE(before.ok());

  const std::string path = ::testing::TempDir() + "/learnrisk_snapshot.txt";
  ASSERT_TRUE(engine.SaveCurrent(path).ok());

  ServingEngine restored;
  const auto version = restored.LoadAndPublish(path);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1u);
  const auto after = restored.Score(request);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->risk.size(), before->risk.size());
  for (size_t i = 0; i < before->risk.size(); ++i) {
    // Text serialization uses max_digits10, so the roundtrip is exact.
    ASSERT_EQ(after->risk[i], before->risk[i]);
    ASSERT_EQ(after->machine_label[i], before->machine_label[i]);
  }
  std::remove(path.c_str());

  EXPECT_TRUE(
      restored.LoadAndPublish("/nonexistent/learnrisk.model").status()
          .IsIOError());
  ServingEngine empty;
  EXPECT_TRUE(empty.SaveCurrent(path).IsFailedPrecondition());
}

}  // namespace
}  // namespace learnrisk
