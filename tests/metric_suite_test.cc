// Copyright 2026 The LearnRisk Authors
// Tests for the metric suite: per-type metric selection, IDF fitting,
// feature matrix computation.

#include "metrics/metric_suite.h"

#include <gtest/gtest.h>

#include "data/generators.h"
#include "reference/raw_metrics.h"

namespace learnrisk {
namespace {

Workload SmallDs() {
  GeneratorOptions opts;
  opts.scale = 0.02;
  opts.seed = 5;
  return GenerateDataset("DS", opts).MoveValueOrDie();
}

TEST(MetricSuiteTest, EntityNameGetsDifferenceMetrics) {
  Schema schema({{"venue", AttributeType::kEntityName}});
  MetricSuite suite = MetricSuite::ForSchema(schema);
  size_t diff = 0;
  for (const MetricSpec& s : suite.specs()) {
    diff += IsDifferenceMetric(s.kind) ? 1 : 0;
  }
  EXPECT_GE(suite.num_metrics(), 6u);
  EXPECT_GE(diff, 3u);
}

TEST(MetricSuiteTest, DescriptionAttributeAvoidsQuadraticMetrics) {
  Schema schema({{"description", AttributeType::kText}});
  MetricSuite suite = MetricSuite::ForSchema(schema);
  for (const MetricSpec& s : suite.specs()) {
    EXPECT_NE(s.kind, MetricKind::kEditSim);
    EXPECT_NE(s.kind, MetricKind::kLcs);
  }
}

TEST(MetricSuiteTest, MetricNamesIncludeAttribute) {
  Schema schema({{"year", AttributeType::kNumeric}});
  MetricSuite suite = MetricSuite::ForSchema(schema);
  for (const std::string& name : suite.MetricNames()) {
    EXPECT_EQ(name.rfind("year.", 0), 0u) << name;
  }
}

TEST(MetricSuiteTest, DsSuiteHasPaperScaleMetricCount) {
  Workload ds = SmallDs();
  MetricSuite suite = MetricSuite::ForSchema(ds.left().schema());
  // Paper used 19 basic metrics on DS (8 difference); our defaults land in
  // the same regime.
  EXPECT_GE(suite.num_metrics(), 15u);
  EXPECT_LE(suite.num_metrics(), 25u);
  size_t diff = 0;
  for (const MetricSpec& s : suite.specs()) {
    diff += IsDifferenceMetric(s.kind) ? 1 : 0;
  }
  EXPECT_GE(diff, 6u);
}

TEST(MetricSuiteTest, EvaluatePairRangesAndMissing) {
  Workload ds = SmallDs();
  MetricSuite suite = MetricSuite::ForSchema(ds.left().schema());
  suite.Fit(ds);
  for (size_t i = 0; i < std::min<size_t>(ds.size(), 100); ++i) {
    const auto row =
        reference::EvaluateRawPair(suite, ds.LeftRecord(i), ds.RightRecord(i));
    ASSERT_EQ(row.size(), suite.num_metrics());
    for (double v : row) {
      EXPECT_TRUE(v == kMissingMetric || (v >= 0.0 && v <= 1.0)) << v;
    }
  }
}

TEST(MetricSuiteTest, UnfittedIdfMetricsReturnMissing) {
  Schema schema({{"title", AttributeType::kText}});
  MetricSuite suite = MetricSuite::ForSchema(schema);
  Record a;
  a.values = {"some title"};
  size_t cosine_idx = suite.num_metrics();
  for (size_t m = 0; m < suite.num_metrics(); ++m) {
    if (suite.specs()[m].kind == MetricKind::kCosineTfIdf) cosine_idx = m;
  }
  ASSERT_LT(cosine_idx, suite.num_metrics());
  EXPECT_EQ(reference::EvaluateRaw(suite, a, a, cosine_idx), kMissingMetric);
}

// A spec naming an attribute outside the schema is rejected up front;
// building the suite would otherwise index the per-attribute tables out of
// bounds (and Fit would too).
TEST(MetricSuiteTest, FromSpecsRejectsOutOfRangeAttribute) {
  const Schema schema({{"title", AttributeType::kText}});
  const Result<MetricSuite> bad = MetricSuite::FromSpecs(
      schema, {MetricSpec{5, MetricKind::kEditSim, "title.edit_sim"}});
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument()) << bad.status().ToString();

  const Result<MetricSuite> good = MetricSuite::FromSpecs(
      schema, {MetricSpec{0, MetricKind::kEditSim, "title.edit_sim"}});
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->num_metrics(), 1u);
}

TEST(FeatureMatrixTest, ComputeFeaturesShapeAndDeterminism) {
  Workload ds = SmallDs();
  MetricSuite suite = MetricSuite::ForSchema(ds.left().schema());
  suite.Fit(ds);
  FeatureMatrix a = ComputeFeatures(ds, suite);
  FeatureMatrix b = ComputeFeatures(ds, suite);
  EXPECT_EQ(a.rows(), ds.size());
  EXPECT_EQ(a.cols(), suite.num_metrics());
  EXPECT_EQ(a.column_names, suite.MetricNames());
  for (size_t i = 0; i < a.rows(); i += 37) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a.at(i, j), b.at(i, j));
    }
  }
}

TEST(FeatureMatrixTest, MatchesHaveHigherTitleSimilarityOnAverage) {
  Workload ds = SmallDs();
  MetricSuite suite = MetricSuite::ForSchema(ds.left().schema());
  suite.Fit(ds);
  FeatureMatrix f = ComputeFeatures(ds, suite);
  // Find the title jaccard column.
  size_t col = f.cols();
  for (size_t j = 0; j < f.cols(); ++j) {
    if (f.column_names[j] == "title.jaccard") col = j;
  }
  ASSERT_LT(col, f.cols());
  double match_sum = 0.0;
  double unmatch_sum = 0.0;
  size_t nm = 0;
  size_t nu = 0;
  for (size_t i = 0; i < f.rows(); ++i) {
    if (ds.pair(i).is_equivalent) {
      match_sum += f.at(i, col);
      ++nm;
    } else {
      unmatch_sum += f.at(i, col);
      ++nu;
    }
  }
  ASSERT_GT(nm, 0u);
  ASSERT_GT(nu, 0u);
  EXPECT_GT(match_sum / nm, unmatch_sum / nu + 0.1);
}

TEST(FeatureMatrixTest, RowAccessors) {
  FeatureMatrix m(2, 3);
  m.set(1, 2, 7.0);
  EXPECT_EQ(m.at(1, 2), 7.0);
  EXPECT_EQ(m.row(1)[2], 7.0);
}

TEST(MetricKindTest, DifferenceClassification) {
  EXPECT_TRUE(IsDifferenceMetric(MetricKind::kNonSubstring));
  EXPECT_TRUE(IsDifferenceMetric(MetricKind::kDiffKeyToken));
  EXPECT_TRUE(IsDifferenceMetric(MetricKind::kNumericUnequal));
  EXPECT_FALSE(IsDifferenceMetric(MetricKind::kTokenJaccard));
  EXPECT_FALSE(IsDifferenceMetric(MetricKind::kCosineTfIdf));
}

}  // namespace
}  // namespace learnrisk
