// Copyright 2026 The LearnRisk Authors
// Drift-monitoring tests, unit level and end-to-end. Unit: RecordBucketed
// is sample-exact vs per-value Record; FromTraining buckets column-wise
// with the live side's quantization (clamp to [0,1], drop non-finite); Psi
// is 0 for identical or empty distributions and large for disjoint ones.
// End-to-end (deterministic): a gateway whose published baseline matches
// the workload it serves keeps every drift gauge quiet, while a baseline
// frozen from a shifted distribution trips learnrisk_gateway_drift_psi_micros
// and the columns-alerted gauge — with gauge values integer-equal to PSI
// recomputed locally from the same data; and the gauges follow the served
// snapshot, so a baseline-less publish quiets them.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "classifier/logistic.h"
#include "data/generators.h"
#include "gateway/gateway.h"
#include "obs/drift.h"
#include "reference/raw_metrics.h"
#include "risk/risk_feature.h"
#include "test_models.h"

namespace learnrisk {
namespace {

using testutil::MakeModel;

TEST(DriftTest, RecordBucketedMatchesPerValueRecord) {
  const std::vector<double> values = {0.0,  0.013, 0.5,  0.501, 0.99,
                                      1.0,  1.7,   -0.3, 0.25,  0.25};
  ValueHistogram reference;
  for (double v : values) reference.Record(v);

  // Bucket the same samples locally (the drift monitor's batching) and
  // flush once.
  uint64_t counts[ValueHistogram::kNumBuckets] = {0};
  uint64_t total = 0, sum = 0;
  uint64_t min = std::numeric_limits<uint64_t>::max(), max = 0;
  for (double v : values) {
    const uint64_t micro = ValueHistogram::ToMicro(v);
    ++counts[ValueHistogram::BucketIndex(micro)];
    ++total;
    sum += micro;
    min = std::min(min, micro);
    max = std::max(max, micro);
  }
  ValueHistogram batched;
  batched.RecordBucketed(counts, total, sum, min, max);

  const HistogramSnapshot a = reference.Snapshot();
  const HistogramSnapshot b = batched.Snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  ASSERT_EQ(a.buckets.size(), b.buckets.size());
  for (size_t i = 0; i < a.buckets.size(); ++i) {
    EXPECT_EQ(a.buckets[i].upper_bound, b.buckets[i].upper_bound);
    EXPECT_EQ(a.buckets[i].count, b.buckets[i].count);
  }

  // Non-finite samples are dropped on both paths; zero-total flush is a
  // no-op.
  ValueHistogram dropped;
  dropped.Record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(dropped.Snapshot().count, 0u);
  dropped.RecordBucketed(counts, 0, 0, 0, 0);
  EXPECT_EQ(dropped.Snapshot().count, 0u);
}

TEST(DriftTest, FromTrainingBucketsColumnsWithLiveQuantization) {
  FeatureMatrix features(4, 2);
  features.column_names = {"jaccard", "edit"};
  // Column 0: in-range values. Column 1: a NaN (dropped) and out-of-range
  // values (clamped like the live side).
  features.set(0, 0, 0.1);
  features.set(1, 0, 0.1);
  features.set(2, 0, 0.9);
  features.set(3, 0, 0.5);
  features.set(0, 1, std::numeric_limits<double>::quiet_NaN());
  features.set(1, 1, -2.0);  // clamps to 0
  features.set(2, 1, 3.0);   // clamps to 1
  features.set(3, 1, 0.25);

  const DriftBaseline baseline =
      DriftBaseline::FromTraining(features, {0.2, 0.8});
  ASSERT_EQ(baseline.columns().size(), 2u);
  EXPECT_EQ(baseline.columns()[0].name, "jaccard");
  EXPECT_EQ(baseline.columns()[1].name, "edit");
  EXPECT_EQ(baseline.columns()[0].total, 4u);
  EXPECT_EQ(baseline.columns()[1].total, 3u);  // NaN dropped
  ASSERT_EQ(baseline.columns()[0].counts.size(), DriftBaseline::kNumBuckets);

  // Bucket placement matches ValueHistogram's quantization exactly.
  const auto bucket_of = [](double v) {
    return ValueHistogram::BucketIndex(ValueHistogram::ToMicro(v));
  };
  EXPECT_EQ(baseline.columns()[0].counts[bucket_of(0.1)], 2u);
  EXPECT_EQ(baseline.columns()[0].counts[bucket_of(0.9)], 1u);
  EXPECT_EQ(baseline.columns()[1].counts[bucket_of(0.0)], 1u);
  EXPECT_EQ(baseline.columns()[1].counts[bucket_of(1.0)], 1u);
  EXPECT_EQ(baseline.columns()[1].counts[bucket_of(0.25)], 1u);

  EXPECT_TRUE(baseline.has_risk());
  EXPECT_EQ(baseline.risk().total, 2u);
  EXPECT_EQ(baseline.risk().name, "risk_score");

  // Default column names when the matrix carries none.
  FeatureMatrix unnamed(1, 2);
  const DriftBaseline anon = DriftBaseline::FromTraining(unnamed);
  ASSERT_EQ(anon.columns().size(), 2u);
  EXPECT_FALSE(anon.columns()[0].name.empty());
  EXPECT_FALSE(anon.has_risk());
}

TEST(DriftTest, PsiZeroOnIdenticalLargeOnDisjoint) {
  FeatureMatrix features(6, 1);
  const std::vector<double> values = {0.1, 0.2, 0.2, 0.5, 0.8, 0.8};
  for (size_t i = 0; i < values.size(); ++i) features.set(i, 0, values[i]);
  const DriftBaseline baseline = DriftBaseline::FromTraining(features);

  // An identical live distribution cancels bucket-for-bucket: every
  // smoothed term has p == q, so the sum is exactly zero.
  ValueHistogram same;
  for (double v : values) same.Record(v);
  EXPECT_EQ(Psi(baseline.columns()[0], same.Snapshot()), 0.0);
  EXPECT_EQ(PsiMicros(baseline.columns()[0], same.Snapshot()), 0);

  // Disjoint live distribution: far past the conventional 0.2 drift bar.
  ValueHistogram shifted;
  for (int i = 0; i < 60; ++i) shifted.Record(0.99);
  const double psi = Psi(baseline.columns()[0], shifted.Snapshot());
  EXPECT_GT(psi, 0.2);
  EXPECT_GE(PsiMicros(baseline.columns()[0], shifted.Snapshot()), 200000);

  // Either side empty reads 0, not NaN/inf.
  ValueHistogram empty;
  EXPECT_EQ(Psi(baseline.columns()[0], empty.Snapshot()), 0.0);
  DriftColumn empty_baseline;
  empty_baseline.counts.assign(DriftBaseline::kNumBuckets, 0);
  EXPECT_EQ(Psi(empty_baseline, same.Snapshot()), 0.0);
}

TEST(DriftTest, ObserveFeaturesStreamsEveryColumn) {
  FeatureMatrix features(3, 2);
  features.set(0, 0, 0.1);
  features.set(1, 0, 0.2);
  features.set(2, 0, 0.3);
  features.set(0, 1, 0.7);
  features.set(1, 1, std::numeric_limits<double>::infinity());  // dropped
  features.set(2, 1, 0.9);

  ValueHistogram col0, col1;
  ObserveFeatures(features, {&col0, &col1});
  const HistogramSnapshot s0 = col0.Snapshot();
  const HistogramSnapshot s1 = col1.Snapshot();
  EXPECT_EQ(s0.count, 3u);
  EXPECT_EQ(s0.min, ValueHistogram::ToMicro(0.1));
  EXPECT_EQ(s0.max, ValueHistogram::ToMicro(0.3));
  EXPECT_EQ(s1.count, 2u);  // the non-finite sample was dropped
  EXPECT_EQ(s1.sum, ValueHistogram::ToMicro(0.7) + ValueHistogram::ToMicro(0.9));
}

// ---------------------------------------------------------------------------
// End-to-end gateway wiring (deterministic: seeded workload, deterministic
// blocking and metrics, integer PSI math).

struct SharedSetup {
  Workload workload;
  MetricSuite suite;
  std::shared_ptr<const BinaryClassifier> classifier;
  RiskModel model{RiskFeatureSet()};

  SharedSetup() {
    GeneratorOptions options;
    options.scale = 0.015;
    options.seed = 123;
    Result<Workload> generated = GenerateDataset("DS", options);
    EXPECT_TRUE(generated.ok()) << generated.status().ToString();
    workload = generated.MoveValueOrDie();
    suite = MetricSuite::ForSchema(workload.left().schema());
    suite.Fit(workload);
    const FeatureMatrix features = ComputeFeatures(workload, suite);
    LogisticOptions logistic;
    logistic.epochs = 15;
    logistic.seed = 5;
    auto trained = std::make_shared<LogisticClassifier>(logistic);
    EXPECT_TRUE(trained->Train(features, workload.Labels()).ok());
    classifier = trained;
    model = MakeModel(11, 24, suite.num_metrics());
  }
};

const SharedSetup& Shared() {
  static const SharedSetup* setup = new SharedSetup();
  return *setup;
}

NamespaceSpec BaseSpec() {
  const SharedSetup& s = Shared();
  NamespaceSpec spec;
  spec.left = s.workload.left_ptr();
  spec.right = s.workload.right_ptr();
  spec.suite = s.suite;
  spec.classifier = s.classifier;
  return spec;
}

// The feature rows the gateway serves for these pairs, recomputed offline
// (bit-identical to the pipeline's prepared path by the parity contract).
FeatureMatrix FeaturesForPairs(const std::vector<RecordPair>& pairs) {
  const SharedSetup& s = Shared();
  FeatureMatrix features(pairs.size(), s.suite.num_metrics());
  features.column_names = s.suite.MetricNames();
  for (size_t i = 0; i < pairs.size(); ++i) {
    reference::EvaluateRawPairInto(
        s.suite, s.workload.left().record(pairs[i].left),
        s.workload.right().record(pairs[i].right), features.mutable_row(i));
  }
  return features;
}

int64_t PsiGauge(const MetricsSnapshot& snap, const std::string& column) {
  const GaugeSnapshot* gauge =
      snap.FindGauge("learnrisk_gateway_drift_psi_micros",
                     {{"column", column}, {"namespace", "ds"}});
  EXPECT_NE(gauge, nullptr) << "missing drift gauge for column " << column;
  return gauge == nullptr ? -1 : gauge->value;
}

TEST(DriftGatewayTest, MatchingBaselineStaysQuiet) {
  const SharedSetup& s = Shared();
  // A fixed pair list served end-to-end is deterministic, so a throwaway
  // gateway's response tells us exactly what the namespace will serve.
  std::vector<RecordPair> pairs;
  const size_t n = std::min<size_t>(
      64, std::min(s.workload.left().num_records(),
                   s.workload.right().num_records()));
  for (size_t i = 0; i < n; ++i) {
    RecordPair pair;
    pair.left = i;
    pair.right = i;
    pairs.push_back(pair);
  }
  ResolveRequest request;
  request.pairs = pairs;

  Gateway probe_gateway;
  ASSERT_TRUE(probe_gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(probe_gateway.Publish("ds", s.model).ok());
  Result<ResolveResponse> first = probe_gateway.Resolve("ds", request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Fresh gateway armed with a baseline frozen from exactly that traffic.
  // One identical resolve makes the live histograms count-for-count equal
  // to the baseline, so every smoothed PSI term cancels: gauges read 0
  // exactly, not just approximately.
  const DriftBaseline baseline = DriftBaseline::FromTraining(
      FeaturesForPairs(pairs), first->scores.risk);
  Gateway gateway;
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway
                  .Publish("ds", s.model,
                           std::make_shared<const DriftBaseline>(baseline))
                  .ok());
  ASSERT_TRUE(gateway.Resolve("ds", request).ok());
  const MetricsSnapshot snap = gateway.MetricsSnapshot();
  for (const std::string& column : s.suite.MetricNames()) {
    EXPECT_EQ(PsiGauge(snap, column), 0) << column;
  }
  EXPECT_EQ(PsiGauge(snap, "risk_score"), 0);
  const GaugeSnapshot* alerted = snap.FindGauge(
      "learnrisk_gateway_drift_columns_alerted", {{"namespace", "ds"}});
  ASSERT_NE(alerted, nullptr);
  EXPECT_EQ(alerted->value, 0);
}

TEST(DriftGatewayTest, ShiftedBaselineTripsGauges) {
  const SharedSetup& s = Shared();
  Gateway gateway;
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());

  // A baseline claiming every feature was 1.0 in training — maximally far
  // from what random-pair traffic actually produces.
  FeatureMatrix ones(32, s.suite.num_metrics());
  ones.column_names = s.suite.MetricNames();
  for (size_t r = 0; r < ones.rows(); ++r) {
    for (size_t c = 0; c < ones.cols(); ++c) ones.set(r, c, 1.0);
  }
  ASSERT_TRUE(gateway
                  .Publish("ds", s.model,
                           std::make_shared<const DriftBaseline>(
                               DriftBaseline::FromTraining(ones)))
                  .ok());

  ResolveRequest request;
  request.block_all = true;
  Result<ResolveResponse> response = gateway.Resolve("ds", request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  // Recompute each column's expected PSI from the same data the gateway
  // saw; the gauges must agree integer-for-integer.
  const FeatureMatrix live = FeaturesForPairs(response->pairs);
  const DriftBaseline shifted = DriftBaseline::FromTraining(ones);
  const MetricsSnapshot snap = gateway.MetricsSnapshot();
  int64_t max_psi = 0;
  int64_t expected_alerted = 0;
  for (size_t c = 0; c < live.cols(); ++c) {
    ValueHistogram local;
    for (size_t r = 0; r < live.rows(); ++r) local.Record(live.at(r, c));
    const int64_t expected =
        PsiMicros(shifted.columns()[c], local.Snapshot());
    EXPECT_EQ(PsiGauge(snap, live.column_names[c]), expected)
        << live.column_names[c];
    max_psi = std::max(max_psi, expected);
    if (expected >= 200000) ++expected_alerted;
  }
  // The shift is real: at least one column crosses the 0.2 drift bar.
  EXPECT_GE(max_psi, 200000);
  const GaugeSnapshot* alerted = snap.FindGauge(
      "learnrisk_gateway_drift_columns_alerted", {{"namespace", "ds"}});
  ASSERT_NE(alerted, nullptr);
  EXPECT_EQ(alerted->value, expected_alerted);
  EXPECT_GE(alerted->value, 1);
}

TEST(DriftGatewayTest, BaselineLessPublishQuietsGauges) {
  const SharedSetup& s = Shared();
  Gateway gateway;
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());

  // Arm the gauges with a baseline far from live traffic: every feature and
  // every training risk score at 1.0.
  FeatureMatrix ones(32, s.suite.num_metrics());
  ones.column_names = s.suite.MetricNames();
  for (size_t r = 0; r < ones.rows(); ++r) {
    for (size_t c = 0; c < ones.cols(); ++c) ones.set(r, c, 1.0);
  }
  const std::vector<double> risk_ones(ones.rows(), 1.0);
  ASSERT_TRUE(gateway
                  .Publish("ds", s.model,
                           std::make_shared<const DriftBaseline>(
                               DriftBaseline::FromTraining(ones, risk_ones)))
                  .ok());
  ResolveRequest request;
  request.block_all = true;
  ASSERT_TRUE(gateway.Resolve("ds", request).ok());
  const MetricsSnapshot armed = gateway.MetricsSnapshot();
  EXPECT_GT(PsiGauge(armed, "risk_score"), 0);
  const GaugeSnapshot* armed_alerted = armed.FindGauge(
      "learnrisk_gateway_drift_columns_alerted", {{"namespace", "ds"}});
  ASSERT_NE(armed_alerted, nullptr);
  ASSERT_GE(armed_alerted->value, 1);

  // The served snapshot now carries no baseline, so nothing is compared
  // against the previous model's.
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
  const MetricsSnapshot snap = gateway.MetricsSnapshot();
  for (const std::string& column : s.suite.MetricNames()) {
    EXPECT_EQ(PsiGauge(snap, column), 0) << column;
  }
  EXPECT_EQ(PsiGauge(snap, "risk_score"), 0);
  const GaugeSnapshot* alerted = snap.FindGauge(
      "learnrisk_gateway_drift_columns_alerted", {{"namespace", "ds"}});
  ASSERT_NE(alerted, nullptr);
  EXPECT_EQ(alerted->value, 0);
}

TEST(DriftGatewayTest, DisabledDriftCreatesNoInstruments) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.drift.enabled = false;
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway
                  .Publish("ds", s.model,
                           std::make_shared<const DriftBaseline>(
                               DriftBaseline::FromTraining(
                                   ComputeFeatures(s.workload, s.suite))))
                  .ok());
  ResolveRequest request;
  request.block_all = true;
  ASSERT_TRUE(gateway.Resolve("ds", request).ok());

  const MetricsSnapshot snap = gateway.MetricsSnapshot();
  for (const GaugeSnapshot& gauge : snap.gauges) {
    EXPECT_NE(gauge.name, "learnrisk_gateway_drift_psi_micros");
    EXPECT_NE(gauge.name, "learnrisk_gateway_drift_columns_alerted");
  }
  for (const HistogramSnapshot& histogram : snap.histograms) {
    EXPECT_NE(histogram.name, "learnrisk_gateway_feature_value");
  }
}

}  // namespace
}  // namespace learnrisk
