// Copyright 2026 The LearnRisk Authors
// Tests for the compiled columnar rule evaluator (src/serve/compiled_rules)
// and rule canonicalization: the compiled activation must be bit-identical
// to the naive Rule::Matches scan on randomized rule sets and workloads,
// including threshold-boundary and NaN inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "reference/naive_activation.h"
#include "risk/risk_feature.h"
#include "rules/rule.h"
#include "serve/compiled_rules.h"

namespace learnrisk {
namespace {

Predicate MakePred(size_t metric, bool greater, double threshold) {
  Predicate p;
  p.metric = metric;
  p.metric_name = "m" + std::to_string(metric);
  p.greater = greater;
  p.threshold = threshold;
  return p;
}

// --- Canonicalization ------------------------------------------------------

TEST(CanonicalizeRuleTest, SortsByMetricAndMergesTightestThreshold) {
  Rule rule;
  rule.predicates = {MakePred(2, true, 0.3), MakePred(0, false, 0.8),
                     MakePred(2, true, 0.6), MakePred(0, false, 0.5)};
  CanonicalizeRule(&rule);
  ASSERT_EQ(rule.predicates.size(), 2u);
  // metric 0: '<=' keeps the min; metric 2: '>' keeps the max.
  EXPECT_EQ(rule.predicates[0].metric, 0u);
  EXPECT_FALSE(rule.predicates[0].greater);
  EXPECT_DOUBLE_EQ(rule.predicates[0].threshold, 0.5);
  EXPECT_EQ(rule.predicates[1].metric, 2u);
  EXPECT_TRUE(rule.predicates[1].greater);
  EXPECT_DOUBLE_EQ(rule.predicates[1].threshold, 0.6);
}

TEST(CanonicalizeRuleTest, KeepsBothDirectionsOnOneMetric) {
  Rule rule;
  rule.predicates = {MakePred(1, true, 0.2), MakePred(1, false, 0.9)};
  CanonicalizeRule(&rule);
  ASSERT_EQ(rule.predicates.size(), 2u);
  EXPECT_FALSE(rule.predicates[0].greater);  // '<=' sorts before '>'
  EXPECT_TRUE(rule.predicates[1].greater);
}

TEST(CanonicalizeRuleTest, PreservesSemanticsOnRandomRows) {
  Rng rng(17);
  for (int iter = 0; iter < 200; ++iter) {
    Rule rule;
    const size_t n_preds = 1 + rng.Index(5);
    for (size_t k = 0; k < n_preds; ++k) {
      rule.predicates.push_back(
          MakePred(rng.Index(3), rng.Bernoulli(0.5), rng.Uniform()));
    }
    Rule canonical = rule;
    CanonicalizeRule(&canonical);
    EXPECT_LE(canonical.predicates.size(), rule.predicates.size());
    for (int r = 0; r < 20; ++r) {
      double row[3] = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
      EXPECT_EQ(rule.Matches(row), canonical.Matches(row));
    }
  }
}

TEST(ConditionKeyTest, OrderIndependent) {
  Rule a;
  a.predicates = {MakePred(0, true, 0.5), MakePred(3, false, 0.2)};
  Rule b;
  b.predicates = {MakePred(3, false, 0.2), MakePred(0, true, 0.5)};
  EXPECT_EQ(a.ConditionKey(), b.ConditionKey());
}

TEST(ConditionKeyTest, RedundantThresholdsCollapse) {
  Rule a;
  a.predicates = {MakePred(0, true, 0.5)};
  Rule b;
  b.predicates = {MakePred(0, true, 0.2), MakePred(0, true, 0.5)};
  EXPECT_EQ(a.ConditionKey(), b.ConditionKey());
}

TEST(DeduplicateRulesTest, CatchesPermutedAndRedundantVariants) {
  Rule a;
  a.predicates = {MakePred(0, true, 0.5), MakePred(1, false, 0.3)};
  a.support = 10;
  Rule permuted;
  permuted.predicates = {MakePred(1, false, 0.3), MakePred(0, true, 0.5)};
  permuted.support = 50;
  Rule redundant;
  redundant.predicates = {MakePred(0, true, 0.1), MakePred(1, false, 0.3),
                          MakePred(0, true, 0.5)};
  redundant.support = 99;
  auto out = DeduplicateRules({a, permuted, redundant});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].support, 99u);
}

// --- Compiled evaluation parity -------------------------------------------

// Random rule set over `n_metrics` columns; thresholds are drawn from a
// coarse grid so feature values land exactly on thresholds often (the
// boundary is where a rank bug would show).
std::vector<Rule> RandomRules(Rng* rng, size_t n_rules, size_t n_metrics) {
  std::vector<Rule> rules(n_rules);
  for (Rule& rule : rules) {
    const size_t n_preds = rng->Index(4);  // 0 predicates allowed
    for (size_t k = 0; k < n_preds; ++k) {
      const double threshold = 0.1 * static_cast<double>(rng->Index(11));
      rule.predicates.push_back(
          MakePred(rng->Index(n_metrics), rng->Bernoulli(0.5), threshold));
    }
    rule.label =
        rng->Bernoulli(0.5) ? RuleClass::kMatching : RuleClass::kUnmatching;
  }
  return rules;
}

FeatureMatrix RandomFeatures(Rng* rng, size_t rows, size_t n_metrics,
                             bool inject_nan) {
  FeatureMatrix features(rows, n_metrics);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t m = 0; m < n_metrics; ++m) {
      double v = rng->Bernoulli(0.5)
                     ? 0.1 * static_cast<double>(rng->Index(11))  // on-grid
                     : rng->Uniform(-0.2, 1.2);
      if (inject_nan && rng->Bernoulli(0.02)) {
        v = std::numeric_limits<double>::quiet_NaN();
      }
      features.set(i, m, v);
    }
  }
  return features;
}

std::vector<uint32_t> NaiveActive(const std::vector<Rule>& rules,
                                  const double* row) {
  std::vector<uint32_t> active;
  for (size_t j = 0; j < rules.size(); ++j) {
    if (rules[j].Matches(row)) active.push_back(static_cast<uint32_t>(j));
  }
  return active;
}

TEST(CompiledRuleSetTest, RandomizedParityWithNaiveScan) {
  Rng rng(1234);
  for (int iter = 0; iter < 1000; ++iter) {
    const size_t n_metrics = 1 + rng.Index(6);
    const size_t n_rules = 1 + rng.Index(40);
    const size_t rows = 1 + rng.Index(40);
    const std::vector<Rule> rules = RandomRules(&rng, n_rules, n_metrics);
    const FeatureMatrix features =
        RandomFeatures(&rng, rows, n_metrics, iter % 4 == 0);

    const CompiledRuleSet compiled(rules);
    const CsrActivation csr = compiled.EvaluateCsr(features);
    ASSERT_EQ(csr.rows(), rows);
    for (size_t i = 0; i < rows; ++i) {
      const std::vector<uint32_t> naive = NaiveActive(rules, features.row(i));
      ASSERT_EQ(compiled.ActiveRules(features.row(i)), naive)
          << "iter " << iter << " row " << i;
      ASSERT_EQ(std::vector<uint32_t>(csr.row(i), csr.row(i) + csr.row_size(i)),
                naive)
          << "iter " << iter << " row " << i;
    }
  }
}

TEST(CompiledRuleSetTest, CoverageMatchesNaiveDefinition) {
  Rng rng(99);
  for (int iter = 0; iter < 50; ++iter) {
    const size_t n_metrics = 1 + rng.Index(5);
    const std::vector<Rule> rules =
        RandomRules(&rng, 1 + rng.Index(20), n_metrics);
    const FeatureMatrix features =
        RandomFeatures(&rng, 1 + rng.Index(60), n_metrics, false);
    const CompiledRuleSet compiled(rules);
    size_t covered = 0;
    for (size_t i = 0; i < features.rows(); ++i) {
      covered += NaiveActive(rules, features.row(i)).empty() ? 0 : 1;
    }
    EXPECT_DOUBLE_EQ(compiled.Coverage(features),
                     static_cast<double>(covered) /
                         static_cast<double>(features.rows()));
  }
}

TEST(CompiledRuleSetTest, EmptyRuleSetAndEmptyMatrix) {
  const CompiledRuleSet empty_rules((std::vector<Rule>()));
  FeatureMatrix features(3, 2);
  const CsrActivation csr = empty_rules.EvaluateCsr(features);
  EXPECT_EQ(csr.rows(), 3u);
  EXPECT_TRUE(csr.rule.empty());
  EXPECT_DOUBLE_EQ(empty_rules.Coverage(features), 0.0);

  Rng rng(5);
  const CompiledRuleSet some_rules(RandomRules(&rng, 4, 2));
  const CsrActivation none = some_rules.EvaluateCsr(FeatureMatrix());
  EXPECT_EQ(none.rows(), 0u);
}

TEST(CompiledRuleSetTest, PredicatelessRuleIsAlwaysActive) {
  std::vector<Rule> rules(2);
  rules[1].predicates = {MakePred(0, true, 0.5)};
  const CompiledRuleSet compiled(rules);
  double low[] = {0.0};
  double high[] = {1.0};
  EXPECT_EQ(compiled.ActiveRules(low), (std::vector<uint32_t>{0}));
  EXPECT_EQ(compiled.ActiveRules(high), (std::vector<uint32_t>{0, 1}));
}

// --- RiskFeatureSet routing ------------------------------------------------

TEST(RiskFeatureSetRoutingTest, CompiledActivationMatchesNaivePath) {
  Rng rng(7);
  const size_t n_metrics = 4;
  std::vector<Rule> rules = RandomRules(&rng, 24, n_metrics);
  const FeatureMatrix train = RandomFeatures(&rng, 200, n_metrics, false);
  std::vector<uint8_t> labels(train.rows());
  for (size_t i = 0; i < labels.size(); ++i) labels[i] = rng.Bernoulli(0.3);
  const RiskFeatureSet set = RiskFeatureSet::Build(rules, train, labels);

  const FeatureMatrix test = RandomFeatures(&rng, 300, n_metrics, false);
  std::vector<double> probs(test.rows());
  for (double& p : probs) p = rng.Uniform();

  const RiskActivation fast = ComputeActivation(set, test, probs);
  const RiskActivation naive =
      reference::ComputeActivationNaive(set, test, probs);
  ASSERT_EQ(fast.size(), naive.size());
  EXPECT_EQ(fast.active, naive.active);
  EXPECT_EQ(fast.machine_label, naive.machine_label);
  EXPECT_EQ(fast.classifier_output, naive.classifier_output);

  // Coverage now routes through the compiled plan; cross-check naively.
  size_t covered = 0;
  for (size_t i = 0; i < test.rows(); ++i) {
    covered += set.ActiveRules(test.row(i)).empty() ? 0 : 1;
  }
  EXPECT_DOUBLE_EQ(set.Coverage(test), static_cast<double>(covered) /
                                           static_cast<double>(test.rows()));
}

}  // namespace
}  // namespace learnrisk
