// Copyright 2026 The LearnRisk Authors
// Snapshot pinning under concurrent publishes. A Resolve scores its rows
// tile by tile (kServeTileRows at a time) in one tiled pass; every tile
// must score against the one ScorerSnapshot the request pinned, so a
// publish landing between two tiles must not change the model mid-response.
// Two models with different rule sets are published alternately while
// resolvers run block_alls spanning several tiles; every response's risks
// must equal, bit for bit, the offline scores of the model version it
// reports in model_version.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "classifier/logistic.h"
#include "data/generators.h"
#include "gateway/gateway.h"
#include "risk/risk_feature.h"
#include "test_models.h"

namespace learnrisk {
namespace {

using testutil::MakeModel;

constexpr char kNs[] = "ds";
constexpr size_t kIterations = 200;  // block_alls per resolver thread
constexpr size_t kResolvers = 2;

TEST(GatewaySnapshotPinTest, EveryResponseScoresOnTheVersionItReports) {
  GeneratorOptions generator;
  generator.scale = 0.02;
  generator.seed = 321;
  Result<Workload> generated = GenerateDataset("DS", generator);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const Workload workload = generated.MoveValueOrDie();
  MetricSuite suite = MetricSuite::ForSchema(workload.left().schema());
  suite.Fit(workload);
  const FeatureMatrix training = ComputeFeatures(workload, suite);
  LogisticOptions logistic;
  logistic.epochs = 15;
  logistic.seed = 5;
  auto classifier = std::make_shared<LogisticClassifier>(logistic);
  ASSERT_TRUE(classifier->Train(training, workload.Labels()).ok());
  const RiskModel models[] = {MakeModel(17, 32, suite.num_metrics()),
                              MakeModel(29, 9, suite.num_metrics())};

  // One chunk per request, so a block_all walks its tiles one after another
  // while publishes land.
  GatewayOptions options;
  options.request_parallelism = 1;
  Gateway gateway(options);
  NamespaceSpec spec;
  spec.left = workload.left_ptr();
  spec.right = workload.right_ptr();
  spec.suite = suite;
  spec.classifier = classifier;
  ASSERT_TRUE(gateway.RegisterNamespace(kNs, spec).ok());
  Result<uint64_t> first = gateway.Publish(kNs, models[0]);
  ASSERT_TRUE(first.ok());

  ResolveRequest block_all;
  block_all.block_all = true;
  Result<ResolveResponse> sized = gateway.Resolve(kNs, block_all);
  ASSERT_TRUE(sized.ok()) << sized.status().ToString();
  const std::vector<RecordPair> pairs = sized->pairs;
  ASSERT_GT(pairs.size(), 2 * kServeTileRows);

  // Offline scores of each model over the block_all pairs.
  const FeaturePipeline pipeline(suite, classifier);
  const PreparedTable left = PreparedTable::Build(workload.left(), suite);
  const PreparedTable right = PreparedTable::Build(workload.right(), suite);
  Result<FeaturizedBatch> batch = pipeline.RunPrepared(left, right, pairs);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  std::vector<double> offline[2];
  for (size_t m = 0; m < 2; ++m) {
    offline[m] = testutil::ReferenceRiskScores(models[m], batch->features,
                                               batch->probs);
  }
  ASSERT_NE(0, std::memcmp(offline[0].data(), offline[1].data(),
                           pairs.size() * sizeof(double)));

  std::mutex mu;
  std::vector<size_t> model_of_version(*first + 1);  // index = version
  model_of_version[*first] = 0;
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (size_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
      const size_t which = i % 2;
      Result<uint64_t> version = gateway.Publish(kNs, models[which]);
      ASSERT_TRUE(version.ok());
      std::lock_guard<std::mutex> lock(mu);
      if (model_of_version.size() <= *version) {
        model_of_version.resize(*version + 1);
      }
      model_of_version[*version] = which;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  // The single publisher alternates models, so version v serves model
  // (v - first) % 2; the map recorded at publish confirms it below.
  auto model_for = [&](uint64_t version) { return (version - *first) % 2; };
  std::mutex seen_mu;
  std::set<uint64_t> versions;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> resolvers;
  for (size_t t = 0; t < kResolvers; ++t) {
    resolvers.emplace_back([&] {
      for (size_t i = 0; i < kIterations; ++i) {
        Result<ResolveResponse> response = gateway.Resolve(kNs, block_all);
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        const uint64_t version = response->scores.model_version;
        const std::vector<double>& risk = response->scores.risk;
        const std::vector<double>& want = offline[model_for(version)];
        ASSERT_EQ(risk.size(), want.size());
        if (std::memcmp(risk.data(), want.data(),
                        want.size() * sizeof(double)) != 0) {
          mismatches.fetch_add(1);
        }
        std::lock_guard<std::mutex> lock(seen_mu);
        versions.insert(version);
      }
    });
  }
  for (std::thread& resolver : resolvers) resolver.join();
  stop.store(true);
  publisher.join();

  EXPECT_EQ(mismatches.load(), 0u);
  for (uint64_t version : versions) {
    ASSERT_LT(version, model_of_version.size());
    EXPECT_EQ(model_of_version[version], model_for(version));
  }
  // The publisher really raced the resolvers.
  EXPECT_GT(versions.size(), 1u);
}

}  // namespace
}  // namespace learnrisk
