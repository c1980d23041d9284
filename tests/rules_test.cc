// Copyright 2026 The LearnRisk Authors
// Tests for rule representation, the one-sided decision forest (Algorithm 1)
// and the two-sided CART / random forest.

#include <gtest/gtest.h>

#include <limits>

#include "common/random.h"
#include "rules/cart.h"
#include "rules/one_sided_tree.h"
#include "rules/rule.h"

namespace learnrisk {
namespace {

TEST(PredicateTest, MatchAndToString) {
  Predicate p{0, "year.numeric_unequal", true, 0.5};
  double row_hit[] = {1.0};
  double row_miss[] = {0.0};
  EXPECT_TRUE(p.Matches(row_hit));
  EXPECT_FALSE(p.Matches(row_miss));
  EXPECT_EQ(p.ToString(), "year.numeric_unequal > 0.500");
  p.greater = false;
  EXPECT_TRUE(p.Matches(row_miss));
  EXPECT_EQ(p.ToString(), "year.numeric_unequal <= 0.500");
}

TEST(RuleTest, ConjunctionSemantics) {
  Rule rule;
  rule.predicates = {{0, "a", true, 0.5}, {1, "b", false, 0.3}};
  double both[] = {0.9, 0.1};
  double first_only[] = {0.9, 0.9};
  EXPECT_TRUE(rule.Matches(both));
  EXPECT_FALSE(rule.Matches(first_only));
}

TEST(RuleTest, ToStringIsInterpretable) {
  Rule rule;
  rule.predicates = {{0, "year.numeric_unequal", true, 0.5}};
  rule.label = RuleClass::kUnmatching;
  rule.support = 812;
  rule.match_rate = 0.01;
  const std::string text = rule.ToString();
  EXPECT_NE(text.find("year.numeric_unequal > 0.500"), std::string::npos);
  EXPECT_NE(text.find("unmatching"), std::string::npos);
  EXPECT_NE(text.find("support=812"), std::string::npos);
}

TEST(RuleTest, DeduplicateKeepsHighestSupport) {
  Rule a;
  a.predicates = {{0, "m", true, 0.5}};
  a.support = 10;
  Rule b = a;
  b.support = 99;
  Rule c;
  c.predicates = {{1, "n", true, 0.5}};
  c.support = 5;
  auto out = DeduplicateRules({a, b, c});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].support, 99u);
  EXPECT_EQ(out[1].support, 5u);
}

TEST(GiniTest, WeightedGiniProperties) {
  EXPECT_DOUBLE_EQ(WeightedGini(0, 100, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(WeightedGini(100, 0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(WeightedGini(50, 50, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(WeightedGini(0, 0, 1.0), 0.0);
  // Class weighting shifts the balance point: 1 match at weight 99 balances
  // 99 unmatches.
  EXPECT_NEAR(WeightedGini(1, 99, 99.0), 0.5, 1e-12);
}

TEST(GiniTest, OneSidedSidePenalizesSmallSubsets) {
  // Same impurity, smaller subset -> worse (larger) score (Eq. 7).
  EXPECT_GT(OneSidedGiniSide(5, 0.0, 0.2), OneSidedGiniSide(500, 0.0, 0.2));
  EXPECT_TRUE(std::isinf(OneSidedGiniSide(0, 0.0, 0.2)));
}

TEST(ThresholdsTest, MidpointsOfDistinctValues) {
  FeatureMatrix f(4, 1);
  f.set(0, 0, 0.0);
  f.set(1, 0, 1.0);
  f.set(2, 0, 1.0);
  f.set(3, 0, 2.0);
  const auto t = OneSidedForest::CandidateThresholds(f, 0, 32);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t[0], 0.5);
  EXPECT_DOUBLE_EQ(t[1], 1.5);
}

TEST(ThresholdsTest, ConstantColumnHasNoThresholds) {
  FeatureMatrix f(5, 1);
  for (size_t i = 0; i < 5; ++i) f.set(i, 0, 0.7);
  EXPECT_TRUE(OneSidedForest::CandidateThresholds(f, 0, 32).empty());
}

TEST(ThresholdsTest, QuantileGridBounded) {
  FeatureMatrix f(1000, 1);
  Rng rng(3);
  for (size_t i = 0; i < 1000; ++i) f.set(i, 0, rng.Uniform());
  const auto t = OneSidedForest::CandidateThresholds(f, 0, 16);
  EXPECT_LE(t.size(), 16u);
  EXPECT_GE(t.size(), 8u);
  for (size_t i = 1; i < t.size(); ++i) EXPECT_GT(t[i], t[i - 1]);
}

// Synthetic ER-like data: metric 0 is a "year unequal" style perfect
// inequivalence indicator on part of the space; metric 1 is a noisy
// similarity.
void MakeRuleData(size_t n, FeatureMatrix* features,
                  std::vector<uint8_t>* labels) {
  *features = FeatureMatrix(n, 2);
  features->column_names = {"year.unequal", "title.sim"};
  labels->resize(n);
  Rng rng(11);
  for (size_t i = 0; i < n; ++i) {
    const bool match = rng.Bernoulli(0.2);
    (*labels)[i] = match ? 1 : 0;
    // Matches never have unequal years; 60% of unmatches do.
    features->set(i, 0, !match && rng.Bernoulli(0.6) ? 1.0 : 0.0);
    features->set(i, 1,
                  match ? rng.Uniform(0.6, 1.0) : rng.Uniform(0.0, 0.7));
  }
}

TEST(OneSidedForestTest, FindsTheInequivalenceRule) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeRuleData(2000, &features, &labels);
  OneSidedForestOptions options;
  auto rules = OneSidedForest::Generate(features, labels, options);
  ASSERT_TRUE(rules.ok());
  ASSERT_FALSE(rules->empty());
  // Expect a high-support unmatching rule on the year metric.
  bool found = false;
  for (const Rule& r : *rules) {
    if (r.label == RuleClass::kUnmatching && r.predicates.size() == 1 &&
        r.predicates[0].metric == 0 && r.predicates[0].greater &&
        r.support > 800) {
      found = true;
      EXPECT_LT(r.match_rate, 0.01);
    }
  }
  EXPECT_TRUE(found);
}

TEST(OneSidedForestTest, FindsMatchingRulesDespiteImbalance) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeRuleData(2000, &features, &labels);
  OneSidedForestOptions options;
  auto rules = OneSidedForest::Generate(features, labels, options);
  ASSERT_TRUE(rules.ok());
  size_t matching = 0;
  for (const Rule& r : *rules) {
    matching += r.label == RuleClass::kMatching ? 1 : 0;
  }
  EXPECT_GT(matching, 0u);
}

TEST(OneSidedForestTest, EmittedRulesSatisfyThresholds) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeRuleData(1500, &features, &labels);
  OneSidedForestOptions options;
  auto rules = OneSidedForest::Generate(features, labels, options);
  ASSERT_TRUE(rules.ok());
  for (const Rule& r : *rules) {
    EXPECT_LE(r.impurity, options.impurity_threshold + 1e-9);
    EXPECT_GE(r.support, options.min_leaf_size);
    EXPECT_LE(r.predicates.size(), options.max_depth + 1);
  }
}

TEST(OneSidedForestTest, RuleStatsConsistentWithData) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeRuleData(1000, &features, &labels);
  auto rules = OneSidedForest::Generate(features, labels, {});
  ASSERT_TRUE(rules.ok());
  for (const Rule& r : *rules) {
    size_t covered = 0;
    size_t matches = 0;
    for (size_t i = 0; i < features.rows(); ++i) {
      if (r.Matches(features.row(i))) {
        ++covered;
        matches += labels[i];
      }
    }
    EXPECT_EQ(covered, r.support);
    EXPECT_NEAR(r.match_rate,
                covered == 0 ? 0.0
                             : static_cast<double>(matches) / covered,
                1e-12);
  }
}

TEST(OneSidedForestTest, InvalidInputsRejected) {
  FeatureMatrix features(10, 1);
  std::vector<uint8_t> labels(5, 0);
  EXPECT_FALSE(OneSidedForest::Generate(features, labels, {}).ok());
  OneSidedForestOptions bad_lambda;
  bad_lambda.lambda = 2.0;
  std::vector<uint8_t> ok_labels(10, 0);
  EXPECT_FALSE(
      OneSidedForest::Generate(features, ok_labels, bad_lambda).ok());
}

// NaN passes a `< 0 || > 1` range check; a NaN lambda or class weight
// makes every split score NaN and Generate would return no rules, and a
// negative weight gives a negative weighted total.
TEST(OneSidedForestTest, NanLambdaAndBadClassWeightRejected) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeRuleData(200, &features, &labels);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  OneSidedForestOptions nan_lambda;
  nan_lambda.lambda = nan;
  EXPECT_TRUE(OneSidedForest::Generate(features, labels, nan_lambda)
                  .status()
                  .IsInvalidArgument());
  for (double weight : {nan, inf, -inf, -1.0}) {
    OneSidedForestOptions bad_weight;
    bad_weight.match_class_weight = weight;
    EXPECT_TRUE(OneSidedForest::Generate(features, labels, bad_weight)
                    .status()
                    .IsInvalidArgument())
        << "match_class_weight " << weight;
  }
  for (double weight : {0.0, 1.0}) {
    OneSidedForestOptions ok_weight;
    ok_weight.match_class_weight = weight;
    EXPECT_TRUE(OneSidedForest::Generate(features, labels, ok_weight).ok())
        << "match_class_weight " << weight;
  }
}

TEST(OneSidedForestTest, DeterministicOutput) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeRuleData(800, &features, &labels);
  auto a = OneSidedForest::Generate(features, labels, {});
  auto b = OneSidedForest::Generate(features, labels, {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].ConditionKey(), (*b)[i].ConditionKey());
  }
}

TEST(CartTest, LearnsAndPredicts) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeRuleData(1500, &features, &labels);
  DecisionTree tree;
  Rng rng(3);
  ASSERT_TRUE(tree.Train(features, labels, {}, {}, &rng).ok());
  EXPECT_GT(tree.num_nodes(), 1u);
  // year-unequal rows should predict low match probability.
  double row[] = {1.0, 0.3};
  EXPECT_LT(tree.PredictProba(row), 0.2);
  double match_row[] = {0.0, 0.9};
  EXPECT_GT(tree.PredictProba(match_row), 0.5);
}

TEST(CartTest, ExtractedRulesPartitionTheSpace) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeRuleData(1000, &features, &labels);
  DecisionTree tree;
  Rng rng(3);
  ASSERT_TRUE(tree.Train(features, labels, {}, {}, &rng).ok());
  const auto rules = tree.ExtractRules(features.column_names);
  ASSERT_FALSE(rules.empty());
  // Every row matches exactly one leaf rule (two-sided property).
  for (size_t i = 0; i < features.rows(); i += 13) {
    size_t hits = 0;
    for (const Rule& r : rules) {
      hits += r.Matches(features.row(i)) ? 1 : 0;
    }
    EXPECT_EQ(hits, 1u);
  }
}

TEST(RandomForestTest, PredictsAndExtractsBudgetedRules) {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
  MakeRuleData(1500, &features, &labels);
  RandomForestOptions options;
  options.num_trees = 10;
  RandomForest forest(options);
  ASSERT_TRUE(forest.Train(features, labels).ok());
  EXPECT_EQ(forest.num_trees(), 10u);
  double row[] = {1.0, 0.3};
  EXPECT_LT(forest.PredictProba(row, 2), 0.3);
  const auto rules = forest.ExtractRules(features.column_names, 7);
  EXPECT_LE(rules.size(), 7u);
  EXPECT_GE(rules.size(), 1u);
}

TEST(RandomForestTest, EmptyTrainingRejected) {
  RandomForest forest;
  EXPECT_FALSE(forest.Train(FeatureMatrix(), {}).ok());
}

}  // namespace
}  // namespace learnrisk
