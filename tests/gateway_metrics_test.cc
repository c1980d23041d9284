// Copyright 2026 The LearnRisk Authors
// End-to-end telemetry tests for the gateway: Resolve / ResolveRecord
// populate the per-namespace request counters, stage-latency histograms, and
// risk-score distribution; AddRecord on a durable namespace fills the
// StageTiming wal_append/publish stages and the WAL volume counters; the
// registry's publish counter and namespace gauge report through the same
// snapshot; recovery counts replayed WAL entries; and
// enable_metrics=false yields an empty snapshot with all recording skipped.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "classifier/logistic.h"
#include "data/generators.h"
#include "gateway/gateway.h"
#include "obs/export.h"
#include "risk/risk_feature.h"
#include "test_models.h"

namespace learnrisk {
namespace {

using testutil::MakeModel;

// One generated workload + fitted pipeline pieces, built once and shared by
// every test (registration inputs are copied, never mutated).
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

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/learnrisk_obs_" + name;
  std::filesystem::remove_all(dir);
  return dir;
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

const MetricLabels kNsLabels = {{"namespace", "ds"}};

uint64_t CounterValue(const MetricsSnapshot& snap, const std::string& name,
                      const MetricLabels& labels = kNsLabels) {
  const CounterSnapshot* counter = snap.FindCounter(name, labels);
  EXPECT_NE(counter, nullptr) << "missing counter " << name;
  return counter == nullptr ? 0 : counter->value;
}

uint64_t StageCount(const MetricsSnapshot& snap, const std::string& stage) {
  const HistogramSnapshot* h =
      snap.FindHistogram("learnrisk_gateway_stage_latency_seconds",
                         {{"namespace", "ds"}, {"stage", stage}});
  EXPECT_NE(h, nullptr) << "missing stage histogram " << stage;
  return h == nullptr ? 0 : h->count;
}

TEST(GatewayMetricsTest, ResolvePopulatesCountersAndStageHistograms) {
  const SharedSetup& s = Shared();
  Gateway gateway;
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());

  ResolveRequest request;
  request.block_all = true;
  Result<ResolveResponse> response = gateway.Resolve("ds", request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const size_t pairs = response->pairs.size();
  ASSERT_GT(pairs, 0u);
  // The split stages appear in the per-request timing and sum into total.
  EXPECT_GE(response->timing.featurize_ms, 0.0);
  EXPECT_GE(response->timing.classify_ms, 0.0);
  EXPECT_NEAR(response->timing.total_ms(),
              response->timing.blocking_ms + response->timing.featurize_ms +
                  response->timing.classify_ms + response->timing.score_ms,
              1e-12);

  const MetricsSnapshot snap = gateway.MetricsSnapshot();
  EXPECT_EQ(CounterValue(snap, "learnrisk_gateway_requests_total",
                         {{"api", "resolve"}, {"namespace", "ds"}}),
            1u);
  EXPECT_EQ(CounterValue(snap, "learnrisk_gateway_pairs_scored_total"),
            pairs);
  for (const char* stage : {"block", "featurize", "classify", "risk"}) {
    EXPECT_EQ(StageCount(snap, stage), 1u) << stage;
  }
  // No durable writes happened: the durability stages exist but are empty.
  EXPECT_EQ(StageCount(snap, "wal_append"), 0u);
  EXPECT_EQ(StageCount(snap, "publish"), 0u);

  const HistogramSnapshot* latency =
      snap.FindHistogram("learnrisk_gateway_request_latency_seconds",
                         {{"api", "resolve"}, {"namespace", "ds"}});
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 1u);
  EXPECT_GT(latency->sum, 0u);

  // Every scored pair lands in the risk-score distribution, in [0, 1].
  const HistogramSnapshot* risk =
      snap.FindHistogram("learnrisk_gateway_risk_score", kNsLabels);
  ASSERT_NE(risk, nullptr);
  EXPECT_EQ(risk->count, pairs);
  EXPECT_LE(risk->max, ValueHistogram::kScale);

  // Snapshot-time gauges report the live record counts.
  const GaugeSnapshot* left = snap.FindGauge(
      "learnrisk_gateway_records", {{"namespace", "ds"}, {"side", "left"}});
  ASSERT_NE(left, nullptr);
  EXPECT_EQ(left->value,
            static_cast<int64_t>(s.workload.left().num_records()));
  const GaugeSnapshot* right = snap.FindGauge(
      "learnrisk_gateway_records", {{"namespace", "ds"}, {"side", "right"}});
  ASSERT_NE(right, nullptr);
  EXPECT_EQ(right->value,
            static_cast<int64_t>(s.workload.right().num_records()));

  // The serving engine's own counters flow into the same snapshot.
  EXPECT_EQ(CounterValue(snap, "learnrisk_serving_score_batches_total", {}),
            1u);
  EXPECT_EQ(CounterValue(snap, "learnrisk_serving_scored_pairs_total", {}),
            pairs);
  EXPECT_GE(CounterValue(snap, "learnrisk_serving_publishes_total", {}), 1u);
  // So do the registry's.
  EXPECT_EQ(CounterValue(snap, "learnrisk_registry_publishes_total", {}), 1u);
  const GaugeSnapshot* namespaces =
      snap.FindGauge("learnrisk_registry_namespaces");
  ASSERT_NE(namespaces, nullptr);
  EXPECT_EQ(namespaces->value, 1);

  // A probe request lands under its own api label.
  Result<ProbeResponse> probe =
      gateway.ResolveRecord("ds", s.workload.left().record(0));
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  const MetricsSnapshot snap2 = gateway.MetricsSnapshot();
  EXPECT_EQ(CounterValue(snap2, "learnrisk_gateway_requests_total",
                         {{"api", "resolve_record"}, {"namespace", "ds"}}),
            1u);

  // Counters are monotone across snapshots (the exporters' contract).
  EXPECT_GE(CounterValue(snap2, "learnrisk_gateway_pairs_scored_total"),
            CounterValue(snap, "learnrisk_gateway_pairs_scored_total"));
}

TEST(GatewayMetricsTest, DurableAddRecordFillsTimingAndWalCounters) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.durability.dir = FreshDir("durable_add");
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());

  constexpr size_t kAdds = 5;
  for (size_t i = 0; i < kAdds; ++i) {
    StageTiming timing;
    ASSERT_TRUE(gateway
                    .AddRecord("ds", BlockingSide::kLeft,
                               s.workload.left().record(i), -1, &timing)
                    .ok());
    // Satellite contract: the durability stages of StageTiming are
    // populated by durable appends, and only those stages.
    EXPECT_GT(timing.wal_append_ms, 0.0);
    EXPECT_GT(timing.publish_ms, 0.0);
    EXPECT_EQ(timing.blocking_ms, 0.0);
    EXPECT_EQ(timing.featurize_ms, 0.0);
    EXPECT_NEAR(timing.total_ms(), timing.wal_append_ms + timing.publish_ms,
                1e-12);
  }

  const MetricsSnapshot snap = gateway.MetricsSnapshot();
  EXPECT_EQ(CounterValue(snap, "learnrisk_gateway_records_added_total"),
            kAdds);
  EXPECT_EQ(CounterValue(snap, "learnrisk_gateway_wal_appends_total"), kAdds);
  EXPECT_GT(CounterValue(snap, "learnrisk_gateway_wal_append_bytes_total"),
            0u);
  EXPECT_EQ(StageCount(snap, "wal_append"), kAdds);
  EXPECT_EQ(StageCount(snap, "publish"), kAdds);

  const GaugeSnapshot* backlog = snap.FindGauge(
      "learnrisk_gateway_wal_entries_since_checkpoint", kNsLabels);
  ASSERT_NE(backlog, nullptr);
  EXPECT_EQ(backlog->value, static_cast<int64_t>(kAdds));

  // Registration committed checkpoint 1; an explicit checkpoint makes 2 and
  // clears the backlog gauge.
  EXPECT_EQ(CounterValue(snap, "learnrisk_gateway_checkpoints_total"), 1u);
  ASSERT_TRUE(gateway.Checkpoint("ds").ok());
  const MetricsSnapshot snap2 = gateway.MetricsSnapshot();
  EXPECT_EQ(CounterValue(snap2, "learnrisk_gateway_checkpoints_total"), 2u);
  EXPECT_GT(CounterValue(snap2, "learnrisk_gateway_checkpoint_bytes_total"),
            0u);
  EXPECT_GT(CounterValue(snap2, "learnrisk_gateway_checkpoint_records_total"),
            0u);
  const HistogramSnapshot* ckpt_latency = snap2.FindHistogram(
      "learnrisk_gateway_checkpoint_latency_seconds", kNsLabels);
  ASSERT_NE(ckpt_latency, nullptr);
  EXPECT_EQ(ckpt_latency->count, 2u);
  EXPECT_EQ(snap2.FindGauge("learnrisk_gateway_wal_entries_since_checkpoint",
                            kNsLabels)
                ->value,
            0);

  // A non-durable gateway's AddRecord fills publish but leaves wal_append
  // at zero.
  Gateway plain;
  ASSERT_TRUE(plain.RegisterNamespace("ds", BaseSpec()).ok());
  StageTiming timing;
  ASSERT_TRUE(plain
                  .AddRecord("ds", BlockingSide::kLeft,
                             s.workload.left().record(0), -1, &timing)
                  .ok());
  EXPECT_EQ(timing.wal_append_ms, 0.0);
  EXPECT_GT(timing.publish_ms, 0.0);
}

TEST(GatewayMetricsTest, RecoveryCountsReplayedWal) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.durability.dir = FreshDir("recover");
  constexpr size_t kAdds = 4;
  {
    Gateway gateway(options);
    ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
    ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
    for (size_t i = 0; i < kAdds; ++i) {
      ASSERT_TRUE(gateway
                      .AddRecord("ds", BlockingSide::kRight,
                                 s.workload.right().record(i))
                      .ok());
    }
  }
  Gateway restarted(options);
  RecoverNamespaceSpec spec;
  spec.schema = s.workload.left().schema();
  spec.suite = s.suite;
  spec.classifier = s.classifier;
  ASSERT_TRUE(restarted.RecoverNamespace("ds", spec).ok());

  const MetricsSnapshot snap = restarted.MetricsSnapshot();
  EXPECT_EQ(CounterValue(snap, "learnrisk_gateway_recoveries_total"), 1u);
  EXPECT_EQ(
      CounterValue(snap, "learnrisk_gateway_recovered_wal_entries_total"),
      kAdds);
  EXPECT_EQ(CounterValue(
                snap, "learnrisk_gateway_recovered_wal_bytes_discarded_total"),
            0u);
  const HistogramSnapshot* recover_latency = snap.FindHistogram(
      "learnrisk_gateway_recover_latency_seconds", kNsLabels);
  ASSERT_NE(recover_latency, nullptr);
  EXPECT_EQ(recover_latency->count, 1u);
}

TEST(GatewayMetricsTest, DisabledMetricsYieldEmptySnapshot) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.enable_metrics = false;
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
  ResolveRequest request;
  request.block_all = true;
  Result<ResolveResponse> response = gateway.Resolve("ds", request);
  ASSERT_TRUE(response.ok());
  // StageTiming still works without instruments — same measurements, no
  // histogram recording.
  EXPECT_GT(response->timing.total_ms(), 0.0);

  const MetricsSnapshot snap = gateway.MetricsSnapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_EQ(ExportJson(snap).find("learnrisk_"), std::string::npos);
}

TEST(GatewayMetricsTest, ExportersRenderGatewaySnapshot) {
  const SharedSetup& s = Shared();
  Gateway gateway;
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
  ResolveRequest request;
  request.block_all = true;
  ASSERT_TRUE(gateway.Resolve("ds", request).ok());

  const MetricsSnapshot snap = gateway.MetricsSnapshot();
  const std::string prom = ExportPrometheusText(snap);
  EXPECT_NE(prom.find("# TYPE learnrisk_gateway_requests_total counter"),
            std::string::npos);
  EXPECT_NE(
      prom.find("# TYPE learnrisk_gateway_stage_latency_seconds histogram"),
      std::string::npos);
  EXPECT_NE(prom.find("namespace=\"ds\""), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  const std::string json = ExportJson(snap);
  EXPECT_NE(json.find("learnrisk_gateway_risk_score"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

}  // namespace
}  // namespace learnrisk
