// Copyright 2026 The LearnRisk Authors
// Round-trip tests for risk-model persistence.

#include "risk/model_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "active/incremental_retrain.h"
#include "common/random.h"
#include "serve/serving_engine.h"

namespace learnrisk {
namespace {

RiskModel TrainedModel() {
  Rule match_rule;
  match_rule.predicates = {{1, "title.jaccard", true, 0.8}};
  match_rule.label = RuleClass::kMatching;
  Rule unmatch_rule;
  unmatch_rule.predicates = {{0, "year.numeric_unequal", true, 0.5},
                             {2, "authors.distinct_entity", false, 0.3}};
  unmatch_rule.label = RuleClass::kUnmatching;
  FeatureMatrix train(40, 3);
  std::vector<uint8_t> labels(40);
  Rng rng(3);
  for (size_t i = 0; i < 40; ++i) {
    const bool match = i % 4 == 0;
    labels[i] = match ? 1 : 0;
    train.set(i, 0, match ? 0.0 : 1.0);
    train.set(i, 1, match ? 0.9 : 0.2);
    train.set(i, 2, rng.Uniform(0.0, 0.29));
  }
  RiskModelOptions options;
  options.var_confidence = 0.85;
  options.output_buckets = 7;
  RiskModel model(
      RiskFeatureSet::Build({match_rule, unmatch_rule}, train, labels),
      options);
  // Perturb parameters so persistence covers non-initial values.
  std::vector<double> theta = model.theta();
  std::vector<double> phi = model.phi();
  theta[0] += 0.7;
  phi[1] -= 0.4;
  std::vector<double> phi_out = model.phi_out();
  phi_out[3] += 0.2;
  model.ApplyUpdate(theta, phi, model.alpha_raw() + 0.1,
                    model.beta_raw() - 0.2, phi_out);
  return model;
}

TEST(ModelIoTest, RoundTripPreservesScores) {
  RiskModel original = TrainedModel();
  auto restored = DeserializeRiskModel(SerializeRiskModel(original));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (double output : {0.05, 0.4, 0.6, 0.95}) {
    for (uint8_t label : {uint8_t{0}, uint8_t{1}}) {
      for (const std::vector<uint32_t>& active :
           {std::vector<uint32_t>{}, {0}, {1}, {0, 1}}) {
        EXPECT_NEAR(restored->RiskScore(active, output, label),
                    original.RiskScore(active, output, label), 1e-9);
      }
    }
  }
}

TEST(ModelIoTest, RoundTripPreservesStructure) {
  RiskModel original = TrainedModel();
  auto restored = DeserializeRiskModel(SerializeRiskModel(original));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_rules(), original.num_rules());
  EXPECT_EQ(restored->options().output_buckets,
            original.options().output_buckets);
  EXPECT_NEAR(restored->options().var_confidence, 0.85, 1e-12);
  for (size_t j = 0; j < original.num_rules(); ++j) {
    EXPECT_EQ(restored->features().rule(j).ConditionKey(),
              original.features().rule(j).ConditionKey());
    EXPECT_NEAR(restored->features().expectation(j),
                original.features().expectation(j), 1e-12);
    EXPECT_EQ(restored->features().train_support(j),
              original.features().train_support(j));
    EXPECT_NEAR(restored->RuleWeight(j), original.RuleWeight(j), 1e-12);
    EXPECT_NEAR(restored->RuleRsd(j), original.RuleRsd(j), 1e-12);
  }
}

TEST(ModelIoTest, FileRoundTrip) {
  RiskModel original = TrainedModel();
  const std::string path = ::testing::TempDir() + "/learnrisk_model.txt";
  ASSERT_TRUE(SaveRiskModel(original, path).ok());
  auto restored = LoadRiskModel(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_NEAR(restored->RiskScore({0, 1}, 0.7, 1),
              original.RiskScore({0, 1}, 0.7, 1), 1e-9);
  std::remove(path.c_str());
}

TEST(ModelIoTest, RejectsGarbage) {
  EXPECT_FALSE(DeserializeRiskModel("").ok());
  EXPECT_FALSE(DeserializeRiskModel("not a model\n").ok());
  EXPECT_FALSE(
      DeserializeRiskModel("learnrisk-model v1\nbogus record\n").ok());
  EXPECT_FALSE(
      DeserializeRiskModel("learnrisk-model v1\noptions 0.9 9 1 0 1\n").ok());
}

TEST(ModelIoTest, TrainerRecordIsAnUnknownTag) {
  // No writer emits a `trainer` record, so the loader knows no such tag.
  const Result<RiskModel> loaded = DeserializeRiskModel(
      "learnrisk-model v1\noptions 0.9 0 1 2 1\n"
      "trainer 77 0.002 0.0005 0.0006 64 256 2048 1 0 31\n"
      "params 0.1 0.2\nphi_out 0 0\n"
      "rule 1 10 0.5 0.1 0.5 10 0.3 0.1 1 0 m 1 0.5\nend\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unknown record tag: trainer"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(ModelIoTest, MissingPhiOutRejected) {
  EXPECT_FALSE(DeserializeRiskModel(
                   "learnrisk-model v1\noptions 0.9 0 1.0 10 1\n"
                   "params 0.0 1.0\n")
                   .ok());
}

TEST(ModelIoTest, MissingFileIsIOError) {
  auto loaded = LoadRiskModel("/nonexistent/model.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
}

TEST(ModelIoTest, TruncatedPayloadIsRejected) {
  const std::string text = SerializeRiskModel(TrainedModel());
  // Rules serialize last, so cutting into the tail leaves a half-written
  // rule record. It must be rejected, not silently dropped.
  ASSERT_GT(text.size(), 10u);
  EXPECT_FALSE(DeserializeRiskModel(text.substr(0, text.size() - 10)).ok());
}

TEST(ModelIoTest, TruncatedFileIsRejected) {
  const std::string path = ::testing::TempDir() + "/learnrisk_model_trunc.txt";
  ASSERT_TRUE(SaveRiskModel(TrainedModel(), path).ok());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 10);
  EXPECT_FALSE(LoadRiskModel(path).ok());
  std::remove(path.c_str());
}

TEST(ModelIoTest, CorruptedRuleFieldIsRejected) {
  std::string text = SerializeRiskModel(TrainedModel());
  const size_t pos = text.find("\nrule ");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 6] = 'z';  // the rule's label field is no longer numeric
  EXPECT_FALSE(DeserializeRiskModel(text).ok());
}

TEST(ModelIoTest, CommentsAndBlankLinesIgnored) {
  RiskModel original = TrainedModel();
  std::string text = SerializeRiskModel(original);
  text += "\n# trailing comment\n\n";
  EXPECT_TRUE(DeserializeRiskModel(text).ok());
}

// A one-rule model payload whose single predicate reads metric column
// `metric` (the model file carries no checksum, so the decoder sees it raw).
std::string ModelWithPredicateMetric(const std::string& metric) {
  return "learnrisk-model v1\noptions 0.9 0 1 10 1\nparams 0.1 0.2\n"
         "phi_out 0 0 0 0 0 0 0 0 0 0\n"
         "rule 1 10 0.5 0.1 0.5 10 0.3 0.1 1 " +
         metric + " m 1 0.5\nend\n";
}

TEST(ModelIoTest, PredicateMetricIndexThatWrapsIsRejected) {
  // metric + 1 would wrap to 0 columns.
  const Result<RiskModel> loaded =
      DeserializeRiskModel(ModelWithPredicateMetric("18446744073709551615"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

TEST(ModelIoTest, HugePredicateMetricIndexFailsClosed) {
  // A plan sized by the largest metric id would need ~72 GB here.
  std::unique_ptr<Result<RiskModel>> loaded;
  ASSERT_NO_THROW(loaded = std::make_unique<Result<RiskModel>>(
                      DeserializeRiskModel(
                          ModelWithPredicateMetric("3000000000"))));
  if (!loaded->ok()) {
    EXPECT_TRUE(loaded->status().IsInvalidArgument());
    return;
  }
  // Decoded: serving and the review retrain must then refuse rows narrower
  // than the rule reads.
  LabeledReview label;
  label.item.features.assign(4, 0.5);
  EXPECT_TRUE(RetrainFromLabels(**loaded, {label}, {})
                  .status()
                  .IsInvalidArgument());
  ServingEngine engine;
  engine.Publish(loaded->MoveValueOrDie());
  const FeatureMatrix narrow(2, 4);
  ScoreRequest request;
  request.metric_features = &narrow;
  request.classifier_probs = {0.2, 0.8};
  EXPECT_TRUE(engine.Score(request).status().IsInvalidArgument());
}

// A two-rule, two-bucket payload with raw parameters
// {theta0, phi0, theta1, phi1, alpha_raw, beta_raw, phi_out0, phi_out1}.
std::string ModelWithRawParams(const std::vector<std::string>& p) {
  return "learnrisk-model v1\noptions 0.9 0 1 2 1\nparams " + p[4] + " " +
         p[5] + "\nphi_out " + p[6] + " " + p[7] +
         "\nrule 1 10 0.5 0.1 0.6 10 " + p[0] + " " + p[1] +
         " 1 0 m 1 0.5\nrule 0 10 0.5 0.1 0.3 10 " + p[2] + " " + p[3] +
         " 1 1 n 1 0.5\nend\n";
}

TEST(ModelIoTest, OverflowingRuleWeightsAreRejected) {
  // Each weight is finite, but their sum overflows: mu would be inf / inf.
  const Result<RiskModel> loaded = DeserializeRiskModel(
      ModelWithRawParams({"1e308", "0", "1e308", "0", "0", "0", "0", "0"}));
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

TEST(ModelIoTest, ExtremeRawParametersFailToDecodeOrScoreFinite) {
  const std::vector<std::string> values = {"1e308", "-1e308", "1e154",
                                           "-1e154", "700", "-700", "0"};
  const std::vector<std::vector<uint32_t>> subsets = {{}, {0}, {1}, {0, 1}};
  Rng rng(21);
  size_t decoded = 0;
  size_t rejected = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::string> params(8);
    for (std::string& p : params) p = values[rng.Index(values.size())];
    const std::string text = ModelWithRawParams(params);
    const Result<RiskModel> loaded = DeserializeRiskModel(text);
    if (!loaded.ok()) {
      EXPECT_TRUE(loaded.status().IsInvalidArgument());
      ++rejected;
      continue;
    }
    ++decoded;
    for (const std::vector<uint32_t>& active : subsets) {
      for (uint8_t label : {uint8_t{0}, uint8_t{1}}) {
        for (double x : {0.0, 0.5, 1.0}) {
          ASSERT_TRUE(std::isfinite(loaded->RiskScore(active, x, label)))
              << text << "x=" << x << " label=" << int{label};
        }
      }
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace learnrisk
