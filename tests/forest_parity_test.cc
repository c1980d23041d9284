// Copyright 2026 The LearnRisk Authors
// Parity of the fit's rule stage with its references: OneSidedForest::
// Generate, which bins each metric once, must return the rescanning
// forest's rules (tests/reference/naive_forest.h) field for field and bit
// for bit, on the paper's datasets, at edge options and on edge columns, and
// its radix-sorted candidate thresholds must equal the std::sort ones;
// RiskFeatureSet::Build's supports and expectations, counted through the
// compiled plan, must equal a per-rule Rule::Matches scan.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/generators.h"
#include "metrics/metric_suite.h"
#include "reference/naive_forest.h"
#include "risk/risk_feature.h"
#include "rules/one_sided_tree.h"
#include "rules/rule.h"

namespace learnrisk {
namespace {

struct LabeledRows {
  FeatureMatrix features;
  std::vector<uint8_t> labels;
};

LabeledRows Featurize(const std::string& dataset, uint64_t seed) {
  GeneratorOptions options;
  options.scale = 0.05;
  options.seed = seed;
  const Workload workload = GenerateDataset(dataset, options).MoveValueOrDie();
  MetricSuite suite = MetricSuite::ForSchema(workload.left().schema());
  suite.Fit(workload);
  return {ComputeFeatures(workload, suite), workload.Labels()};
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectSameRules(const std::vector<Rule>& got,
                     const std::vector<Rule>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t j = 0; j < got.size(); ++j) {
    SCOPED_TRACE("rule " + std::to_string(j) + ": " + want[j].ToString());
    const Rule& g = got[j];
    const Rule& w = want[j];
    ASSERT_EQ(g.predicates.size(), w.predicates.size());
    for (size_t p = 0; p < g.predicates.size(); ++p) {
      EXPECT_EQ(g.predicates[p].metric, w.predicates[p].metric);
      EXPECT_EQ(g.predicates[p].metric_name, w.predicates[p].metric_name);
      EXPECT_EQ(g.predicates[p].greater, w.predicates[p].greater);
      EXPECT_EQ(Bits(g.predicates[p].threshold),
                Bits(w.predicates[p].threshold));
    }
    EXPECT_EQ(g.support, w.support);
    EXPECT_EQ(Bits(g.match_rate), Bits(w.match_rate));
    EXPECT_EQ(Bits(g.impurity), Bits(w.impurity));
    EXPECT_EQ(g.label, w.label);
  }
}

// Build's statistics against the per-rule Rule::Matches scan it replaced.
void ExpectBuildMatchesScan(const std::vector<Rule>& rules,
                            const LabeledRows& rows) {
  const RiskFeatureSet set =
      RiskFeatureSet::Build(rules, rows.features, rows.labels);
  ASSERT_EQ(set.num_rules(), rules.size());
  for (size_t j = 0; j < rules.size(); ++j) {
    size_t covered = 0;
    size_t matches = 0;
    for (size_t i = 0; i < rows.features.rows(); ++i) {
      if (!rules[j].Matches(rows.features.row(i))) continue;
      ++covered;
      matches += rows.labels[i];
    }
    EXPECT_EQ(set.train_support(j), covered) << "rule " << j;
    EXPECT_EQ(Bits(set.expectation(j)),
              Bits((static_cast<double>(matches) + 1.0) /
                   (static_cast<double>(covered) + 2.0)))
        << "rule " << j;
  }
}

// Generates with both forests and compares; returns the rules.
std::vector<Rule> ExpectForestParity(const LabeledRows& rows,
                                     const OneSidedForestOptions& options) {
  auto got = OneSidedForest::Generate(rows.features, rows.labels, options);
  auto want = reference::OneSidedForestNaive::Generate(rows.features,
                                                       rows.labels, options);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(want.ok()) << want.status().ToString();
  if (!got.ok() || !want.ok()) return {};
  ExpectSameRules(*got, *want);
  return *want;
}

void ExpectSameThresholds(const FeatureMatrix& features,
                          size_t num_thresholds) {
  for (size_t m = 0; m < features.cols(); ++m) {
    SCOPED_TRACE("metric " + std::to_string(m) + " num_thresholds " +
                 std::to_string(num_thresholds));
    const std::vector<double> got =
        OneSidedForest::CandidateThresholds(features, m, num_thresholds);
    const std::vector<double> want =
        reference::OneSidedForestNaive::CandidateThresholds(features, m,
                                                            num_thresholds);
    ASSERT_EQ(got.size(), want.size());
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(Bits(got[k]), Bits(want[k])) << "threshold " << k;
    }
  }
}

TEST(ForestParityTest, CandidateThresholdsMatchStdSort) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double specials[] = {0.0,  -0.0, kMissingMetric, 1.0, -inf, inf,
                             tiny, -tiny, 1e300,         -1e-300};
  Rng rng(5);
  FeatureMatrix features(3000, 8);
  for (size_t i = 0; i < features.rows(); ++i) {
    // Continuous values: every radix byte varies.
    features.set(i, 0, rng.Uniform());
    // Signed zeros, the missing marker and ties.
    const double zeros[] = {0.0, -0.0, kMissingMetric, 0.25, 1.0};
    features.set(i, 1, zeros[rng.Index(5)]);
    features.set(i, 2, specials[rng.Index(10)]);
    // A few NaN rows: the column keeps std::sort.
    features.set(i, 3, rng.Index(100) == 0 ? nan : rng.Uniform());
    features.set(i, 4, 0.5);
    features.set(i, 5, rng.Index(2) == 0 ? 0.0 : -0.0);
    // Random finite bit patterns: both signs, every exponent.
    uint64_t bits = rng.Fork();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    features.set(i, 6, std::isfinite(v) ? v : 2.0);
    features.set(i, 7, static_cast<double>(rng.Index(10)));
  }
  for (size_t num_thresholds : {1, 2, 4, 32, 300, 100000}) {
    ExpectSameThresholds(features, num_thresholds);
  }
  for (const char* dataset : {"DS", "SG"}) {
    SCOPED_TRACE(dataset);
    ExpectSameThresholds(Featurize(dataset, 1).features, 32);
  }
}

TEST(ForestParityTest, PaperDatasetsMatchNaiveForest) {
  for (const char* dataset : {"DS", "SG", "AB", "AG"}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::string(dataset) + " seed " + std::to_string(seed));
      const LabeledRows rows = Featurize(dataset, seed);
      const std::vector<Rule> rules = ExpectForestParity(rows, {});
      EXPECT_FALSE(rules.empty());
      ExpectBuildMatchesScan(rules, rows);
    }
  }
}

TEST(ForestParityTest, EdgeOptionsMatchNaiveForest) {
  struct Edge {
    const char* name;
    OneSidedForestOptions options;
  };
  std::vector<Edge> edges;
  auto add = [&edges](const char* name, auto set) {
    OneSidedForestOptions options;
    set(&options);
    edges.push_back({name, options});
  };
  add("num_thresholds=1",
      [](OneSidedForestOptions* o) { o->num_thresholds = 1; });
  // More bins than a byte holds.
  add("num_thresholds=300",
      [](OneSidedForestOptions* o) { o->num_thresholds = 300; });
  add("beam_width=1", [](OneSidedForestOptions* o) { o->beam_width = 1; });
  add("max_depth=1", [](OneSidedForestOptions* o) { o->max_depth = 1; });
  add("lambda=0", [](OneSidedForestOptions* o) { o->lambda = 0.0; });
  add("lambda=1", [](OneSidedForestOptions* o) { o->lambda = 1.0; });
  add("match_class_weight=1",
      [](OneSidedForestOptions* o) { o->match_class_weight = 1.0; });
  for (const char* dataset : {"DS", "SG"}) {
    const LabeledRows rows = Featurize(dataset, 1);
    for (const Edge& edge : edges) {
      SCOPED_TRACE(std::string(dataset) + " " + edge.name);
      const std::vector<Rule> rules = ExpectForestParity(rows, edge.options);
      ExpectBuildMatchesScan(rules, rows);
    }
  }
}

TEST(ForestParityTest, EdgeColumnsMatchNaiveForest) {
  // Column 0 is informative and continuous; 1 is constant; 2 is all
  // kMissingMetric; 3 takes five values with heavy ties, two of them
  // adjacent doubles whose midpoint rounds onto the lower one, so a
  // threshold equals a value and lower_bound and upper_bound disagree.
  const double one_up = std::nextafter(1.0, 2.0);
  const double ties[] = {0.0, 0.5, 1.0, one_up, 2.0};
  const double match_share[] = {0.02, 0.05, 0.5, 0.95, 0.98};
  Rng rng(11);
  LabeledRows rows;
  rows.features = FeatureMatrix(2000, 4);
  rows.features.column_names = {"score", "constant", "missing", "ties"};
  rows.labels.resize(2000);
  for (size_t i = 0; i < 2000; ++i) {
    const size_t t = rng.Index(5);
    rows.labels[i] = rng.Uniform() < match_share[t] ? 1 : 0;
    rows.features.set(i, 0,
                      0.6 * rows.labels[i] + 0.4 * rng.Uniform());
    rows.features.set(i, 1, 0.5);
    rows.features.set(i, 2, kMissingMetric);
    rows.features.set(i, 3, ties[t]);
  }
  ASSERT_EQ(0.5 * (1.0 + one_up), 1.0);
  for (size_t thresholds : {1, 4, 32}) {
    for (double weight : {1.0, 1000.0}) {
      SCOPED_TRACE("num_thresholds=" + std::to_string(thresholds) +
                   " match_class_weight=" + std::to_string(weight));
      OneSidedForestOptions options;
      options.num_thresholds = thresholds;
      options.match_class_weight = weight;
      const std::vector<Rule> rules = ExpectForestParity(rows, options);
      EXPECT_FALSE(rules.empty());
      ExpectBuildMatchesScan(rules, rows);
    }
  }
  // The ties column alone: every split is on tied values.
  LabeledRows tied;
  tied.features = FeatureMatrix(rows.features.rows(), 3);
  tied.labels = rows.labels;
  for (size_t i = 0; i < rows.features.rows(); ++i) {
    tied.features.set(i, 0, rows.features.at(i, 1));
    tied.features.set(i, 1, rows.features.at(i, 2));
    tied.features.set(i, 2, rows.features.at(i, 3));
  }
  const std::vector<Rule> rules = ExpectForestParity(tied, {});
  EXPECT_FALSE(rules.empty());
  ExpectBuildMatchesScan(rules, tied);
}

}  // namespace
}  // namespace learnrisk
