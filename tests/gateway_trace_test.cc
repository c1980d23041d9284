// Copyright 2026 The LearnRisk Authors
// Request-trace tests for the gateway: ids are assigned monotonically
// across all three APIs and echoed in responses and StageTiming; head
// sampling, slow tail capture, and high-risk tail capture each land traces
// in RecentTraces() with the right flags; a captured trace's stages are the
// same measurements StageTiming saw, its decision list is the top-k by
// risk with rule activations and explanations; every request's stage record
// yields the same stages, in execution order, to StageTiming, the trace and
// the stage histograms (unsharded and sharded, review off and on, durable
// AddRecord included); explanations come from the exact snapshot that
// scored even while publishes race the request; tracing works with
// aggregate metrics off and is fully absent when disabled; and
// ExportTracesJson renders the documented schema.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "classifier/logistic.h"
#include "data/generators.h"
#include "gateway/gateway.h"
#include "obs/trace.h"
#include "reference/raw_metrics.h"
#include "risk/risk_feature.h"
#include "serve/scorer_snapshot.h"
#include "test_models.h"

namespace learnrisk {
namespace {

using testutil::MakeModel;

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

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/learnrisk_trace_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

bool HasStage(const RequestTrace& trace, const std::string& stage) {
  for (const TraceStageSpan& span : trace.stages) {
    if (stage == span.stage) return true;
  }
  return false;
}

TEST(GatewayTraceTest, RequestIdsMonotoneAcrossApis) {
  const SharedSetup& s = Shared();
  Gateway gateway;
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());

  ResolveRequest request;
  request.block_all = true;
  Result<ResolveResponse> resolve = gateway.Resolve("ds", request);
  ASSERT_TRUE(resolve.ok());
  EXPECT_EQ(resolve->request_id, 1u);
  EXPECT_EQ(resolve->timing.request_id, resolve->request_id);

  Result<ProbeResponse> probed =
      gateway.ResolveRecord("ds", s.workload.left().record(0));
  ASSERT_TRUE(probed.ok());
  EXPECT_EQ(probed->request_id, 2u);
  EXPECT_EQ(probed->timing.request_id, probed->request_id);

  StageTiming timing;
  ASSERT_TRUE(gateway
                  .AddRecord("ds", BlockingSide::kLeft,
                             s.workload.left().record(0), -1, &timing)
                  .ok());
  EXPECT_EQ(timing.request_id, 3u);
}

TEST(GatewayTraceTest, HeadSamplingCapturesEveryRequestAtOne) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.trace.sample_every = 1;
  options.trace.top_k = 2;
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());

  ResolveRequest request;
  request.block_all = true;
  Result<ResolveResponse> resolve = gateway.Resolve("ds", request);
  ASSERT_TRUE(resolve.ok());
  Result<ProbeResponse> probed =
      gateway.ResolveRecord("ds", s.workload.left().record(0));
  ASSERT_TRUE(probed.ok());

  const auto traces = gateway.RecentTraces();
  ASSERT_EQ(traces.size(), 2u);

  // The resolve trace, field by field.
  const RequestTrace& trace = *traces[0];
  EXPECT_EQ(trace.request_id, resolve->request_id);
  EXPECT_STREQ(trace.api, "resolve");
  EXPECT_EQ(trace.ns, "ds");
  EXPECT_GE(trace.model_version, 1u);
  EXPECT_EQ(trace.model_version, resolve->scores.model_version);
  EXPECT_GT(trace.total_ns, 0u);
  EXPECT_GT(trace.start_ns, 0u);
  EXPECT_TRUE(trace.head_sampled);
  EXPECT_FALSE(trace.slow);
  EXPECT_FALSE(trace.high_risk);
  EXPECT_EQ(trace.candidates, resolve->pairs.size());
  EXPECT_EQ(trace.pairs_scored, resolve->scores.risk.size());
  for (const char* stage : {"block", "featurize", "classify", "risk"}) {
    EXPECT_TRUE(HasStage(trace, stage)) << stage;
  }
  double max_risk = 0.0;
  for (double risk : resolve->scores.risk) {
    max_risk = std::max(max_risk, risk);
  }
  EXPECT_DOUBLE_EQ(trace.max_risk, max_risk);

  // Top-k decisions: sorted by risk, capped at top_k, first one is the max,
  // each carries the pair indices and the explanation evidence.
  ASSERT_EQ(trace.top_risky.size(),
            std::min<size_t>(2, resolve->scores.risk.size()));
  EXPECT_DOUBLE_EQ(trace.top_risky[0].risk, max_risk);
  for (size_t i = 1; i < trace.top_risky.size(); ++i) {
    EXPECT_GE(trace.top_risky[i - 1].risk, trace.top_risky[i].risk);
  }
  for (const TracedDecision& decision : trace.top_risky) {
    EXPECT_GE(decision.left, 0);
    EXPECT_GE(decision.right, 0);
    EXPECT_GE(decision.classifier_prob, 0.0);
    EXPECT_LE(decision.classifier_prob, 1.0);
    for (uint32_t rule : decision.active_rules) {
      EXPECT_LT(rule, 24u);  // MakeModel(11, 24, ...) has 24 rules
    }
    // Explanations come from the active rules (<= top_k heaviest).
    EXPECT_LE(decision.explanation.size(), decision.active_rules.size());
    for (const TraceContribution& c : decision.explanation) {
      EXPECT_FALSE(c.description.empty());
    }
  }

  // The probe trace: left is -1 (the probe has no index), right is one of
  // the returned candidates.
  const RequestTrace& probe_trace = *traces[1];
  EXPECT_STREQ(probe_trace.api, "resolve_record");
  EXPECT_EQ(probe_trace.request_id, probed->request_id);
  EXPECT_EQ(probe_trace.candidates, probed->candidates.size());
  for (const TracedDecision& decision : probe_trace.top_risky) {
    EXPECT_EQ(decision.left, -1);
    EXPECT_NE(std::find(probed->candidates.begin(), probed->candidates.end(),
                        static_cast<size_t>(decision.right)),
              probed->candidates.end());
  }
}

TEST(GatewayTraceTest, DefaultSamplingSkipsEarlyRequests) {
  const SharedSetup& s = Shared();
  Gateway gateway;  // defaults: sample_every = 64, tail triggers off
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
  ResolveRequest request;
  request.block_all = true;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(gateway.Resolve("ds", request).ok());  // ids 1..3: none % 64
  }
  EXPECT_TRUE(gateway.RecentTraces().empty());
}

TEST(GatewayTraceTest, SlowTailCaptureFlagsSlowRequests) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.trace.sample_every = 0;          // head sampling off
  options.trace.slow_request_ms = 1e-6;    // everything is "slow"
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
  ResolveRequest request;
  request.block_all = true;
  ASSERT_TRUE(gateway.Resolve("ds", request).ok());

  const auto traces = gateway.RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(traces[0]->slow);
  EXPECT_FALSE(traces[0]->head_sampled);
  EXPECT_FALSE(traces[0]->high_risk);
}

TEST(GatewayTraceTest, HighRiskTailCaptureFlagsRiskyRequests) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.trace.sample_every = 0;
  options.trace.high_risk_threshold = 0.0;  // any scored request qualifies
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
  ResolveRequest request;
  request.block_all = true;
  ASSERT_TRUE(gateway.Resolve("ds", request).ok());

  // AddRecord has no scores, so the risk trigger never fires for it.
  ASSERT_TRUE(gateway
                  .AddRecord("ds", BlockingSide::kLeft,
                             s.workload.left().record(0))
                  .ok());

  const auto traces = gateway.RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(traces[0]->high_risk);
  EXPECT_STREQ(traces[0]->api, "resolve");
  EXPECT_FALSE(traces[0]->head_sampled);
}

const std::vector<std::string> kAllStages = {
    "block", "shard_merge", "featurize", "classify",
    "risk",  "review",      "wal_append", "publish"};

// The StageTiming field behind each trace stage name.
double TimingOf(const StageTiming& timing, const std::string& stage) {
  if (stage == "block") return timing.blocking_ms;
  if (stage == "shard_merge") return timing.shard_merge_ms;
  if (stage == "featurize") return timing.featurize_ms;
  if (stage == "classify") return timing.classify_ms;
  if (stage == "risk") return timing.score_ms;
  if (stage == "review") return timing.review_ms;
  if (stage == "wal_append") return timing.wal_append_ms;
  if (stage == "publish") return timing.publish_ms;
  ADD_FAILURE() << "unknown stage " << stage;
  return -1.0;
}

// Follows the per-stage latency histograms across requests.
class StageCounts {
 public:
  explicit StageCounts(const Gateway& gateway) : gateway_(gateway) {
    for (const std::string& stage : kAllStages) counts_[stage] = Count(stage);
  }

  // Every stage the last request ran advanced by exactly one sample; every
  // other stage stood still.
  void ExpectAdvanced(const std::vector<std::string>& ran) {
    for (const std::string& stage : kAllStages) {
      const bool did_run = std::find(ran.begin(), ran.end(), stage) != ran.end();
      const uint64_t now = Count(stage);
      EXPECT_EQ(now, counts_[stage] + (did_run ? 1 : 0)) << stage;
      counts_[stage] = now;
    }
  }

 private:
  uint64_t Count(const std::string& stage) const {
    const MetricsSnapshot snap = gateway_.MetricsSnapshot();
    const HistogramSnapshot* h =
        snap.FindHistogram("learnrisk_gateway_stage_latency_seconds",
                           {{"namespace", "ds"}, {"stage", stage}});
    return h == nullptr ? 0 : h->count;
  }

  const Gateway& gateway_;
  std::map<std::string, uint64_t> counts_;
};

// The trace lists exactly `ran`, in execution order, each stage carrying the
// exact double its StageTiming field holds; stages that did not run read 0.
void ExpectTraceStages(const RequestTrace& trace, const StageTiming& timing,
                       const std::vector<std::string>& ran) {
  EXPECT_EQ(trace.request_id, timing.request_id);
  ASSERT_EQ(trace.stages.size(), ran.size());
  for (size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(trace.stages[i].stage, ran[i]);
    EXPECT_EQ(trace.stages[i].ms, TimingOf(timing, ran[i])) << ran[i];
  }
  for (const std::string& stage : kAllStages) {
    if (std::find(ran.begin(), ran.end(), stage) == ran.end()) {
      EXPECT_EQ(TimingOf(timing, stage), 0.0) << stage;
    }
  }
}

TEST(GatewayTraceTest, StagesAgreeAcrossTimingTraceAndHistograms) {
  const SharedSetup& s = Shared();
  for (size_t shards : {1, 4}) {
    for (bool review : {false, true}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " review=" + std::to_string(review));
      GatewayOptions options;
      options.trace.sample_every = 1;
      options.review.enabled = review;
      options.durability.dir = FreshDir("stages_" + std::to_string(shards) +
                                        (review ? "_review" : ""));
      Gateway gateway(options);
      NamespaceSpec spec = BaseSpec();
      spec.shards = shards;
      ASSERT_TRUE(gateway.RegisterNamespace("ds", spec).ok());
      StageCounts counts(gateway);

      // Before the first Publish the request fails at scoring; its latency
      // and the stages that ran before the failure are still recorded.
      std::vector<std::string> read_stages = {"block"};
      if (shards > 1) read_stages.push_back("shard_merge");
      read_stages.push_back("featurize");
      read_stages.push_back("classify");
      ResolveRequest request;
      request.block_all = true;
      EXPECT_TRUE(
          gateway.Resolve("ds", request).status().IsFailedPrecondition());
      const MetricsSnapshot snap = gateway.MetricsSnapshot();
      const HistogramSnapshot* latency =
          snap.FindHistogram("learnrisk_gateway_request_latency_seconds",
                             {{"api", "resolve"}, {"namespace", "ds"}});
      ASSERT_NE(latency, nullptr);
      EXPECT_EQ(latency->count, 1u);
      counts.ExpectAdvanced(read_stages);
      EXPECT_TRUE(gateway.RecentTraces().empty());

      read_stages.push_back("risk");
      if (review) read_stages.push_back("review");
      ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
      Result<ResolveResponse> resolved = gateway.Resolve("ds", request);
      ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
      counts.ExpectAdvanced(read_stages);
      Result<ProbeResponse> probed =
          gateway.ResolveRecord("ds", s.workload.left().record(0));
      ASSERT_TRUE(probed.ok()) << probed.status().ToString();
      counts.ExpectAdvanced(read_stages);
      StageTiming timing;
      ASSERT_TRUE(gateway
                      .AddRecord("ds", BlockingSide::kLeft,
                                 s.workload.left().record(0), -1, &timing)
                      .ok());
      counts.ExpectAdvanced({"wal_append", "publish"});

      const auto traces = gateway.RecentTraces();
      ASSERT_EQ(traces.size(), 3u);
      EXPECT_STREQ(traces[0]->api, "resolve");
      ExpectTraceStages(*traces[0], resolved->timing, read_stages);
      EXPECT_STREQ(traces[1]->api, "resolve_record");
      ExpectTraceStages(*traces[1], probed->timing, read_stages);
      const RequestTrace& add = *traces[2];
      EXPECT_STREQ(add.api, "add_record");
      EXPECT_EQ(add.model_version, 0u);  // no scoring happened
      EXPECT_TRUE(add.top_risky.empty());
      ExpectTraceStages(add, timing, {"wal_append", "publish"});
    }
  }
}

TEST(GatewayTraceTest, ExplanationsComeFromTheSnapshotThatScored) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.trace.sample_every = 1;
  options.trace.buffer_capacity = 1024;
  options.request_parallelism = 1;
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());

  // Two models with different rule sets, published alternately while
  // resolvers run: an explanation drawn from the wrong snapshot names other
  // rules, weights or risks than the version the trace reports.
  const RiskModel models[] = {s.model,
                              MakeModel(29, 9, s.suite.num_metrics())};
  std::mutex mu;
  std::map<uint64_t, size_t> model_of_version;
  auto publish = [&](size_t which) {
    Result<uint64_t> version = gateway.Publish("ds", models[which]);
    ASSERT_TRUE(version.ok());
    std::lock_guard<std::mutex> lock(mu);
    model_of_version[*version] = which;
  };
  publish(0);

  const Record& probe = s.workload.left().record(0);
  ResolveRequest request;
  request.block_all = true;
  std::atomic<bool> resolvers_done{false};
  std::thread publisher([&] {
    for (size_t i = 1; !resolvers_done.load(); ++i) {
      publish(i % 2);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> resolvers;
  for (int t = 0; t < 2; ++t) {
    resolvers.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(gateway.Resolve("ds", request).ok());
        ASSERT_TRUE(gateway.ResolveRecord("ds", probe).ok());
      }
    });
  }
  for (std::thread& resolver : resolvers) resolver.join();
  resolvers_done.store(true);
  publisher.join();
  // One quiet request under each model, so both are covered for certain.
  for (size_t which : {0, 1}) {
    publish(which);
    ASSERT_TRUE(gateway.Resolve("ds", request).ok());
  }

  const ScorerSnapshot snapshot_a(models[0]);
  const ScorerSnapshot snapshot_b(models[1]);
  const ScorerSnapshot* snapshots[] = {&snapshot_a, &snapshot_b};
  const auto traces = gateway.RecentTraces();
  ASSERT_EQ(traces.size(), 82u);
  std::set<size_t> models_seen;
  size_t decisions = 0;
  for (const auto& trace : traces) {
    const auto it = model_of_version.find(trace->model_version);
    ASSERT_NE(it, model_of_version.end()) << trace->model_version;
    models_seen.insert(it->second);
    const ScorerSnapshot& scorer = *snapshots[it->second];
    for (const TracedDecision& decision : trace->top_risky) {
      const Record& left =
          decision.left < 0 ? probe : s.workload.left().record(decision.left);
      const std::vector<double> row = reference::EvaluateRawPair(
          s.suite, left, s.workload.right().record(decision.right));
      const std::vector<uint32_t> active =
          scorer.compiled().ActiveRules(row.data());
      EXPECT_EQ(decision.active_rules, active);
      EXPECT_EQ(decision.risk,
                scorer.model().RiskScore(active, decision.classifier_prob,
                                         decision.machine_label ? 1 : 0));
      const std::vector<RiskContribution> expected = scorer.model().Explain(
          active, decision.classifier_prob, options.trace.top_k);
      ASSERT_EQ(decision.explanation.size(), expected.size());
      for (size_t j = 0; j < expected.size(); ++j) {
        EXPECT_EQ(decision.explanation[j].description, expected[j].description);
        EXPECT_EQ(decision.explanation[j].weight, expected[j].weight);
        EXPECT_EQ(decision.explanation[j].expectation,
                  expected[j].expectation);
        EXPECT_EQ(decision.explanation[j].rsd, expected[j].rsd);
      }
      ++decisions;
    }
  }
  EXPECT_EQ(models_seen.size(), 2u);
  EXPECT_GT(decisions, 0u);
}

TEST(GatewayTraceTest, TracingWorksWithMetricsDisabled) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.enable_metrics = false;
  options.trace.sample_every = 1;
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
  ResolveRequest request;
  request.block_all = true;
  ASSERT_TRUE(gateway.Resolve("ds", request).ok());

  EXPECT_TRUE(gateway.MetricsSnapshot().counters.empty());
  const auto traces = gateway.RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_GT(traces[0]->total_ns, 0u);
  for (const char* stage : {"block", "featurize", "classify", "risk"}) {
    EXPECT_TRUE(HasStage(*traces[0], stage)) << stage;
  }
}

TEST(GatewayTraceTest, DisabledTracingStillAssignsIds) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.trace.enabled = false;
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
  ResolveRequest request;
  request.block_all = true;
  Result<ResolveResponse> resolve = gateway.Resolve("ds", request);
  ASSERT_TRUE(resolve.ok());
  EXPECT_EQ(resolve->request_id, 1u);
  EXPECT_TRUE(gateway.RecentTraces().empty());
}

TEST(GatewayTraceTest, ExportTracesJsonRendersSchema) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.trace.sample_every = 1;
  Gateway gateway(options);
  ASSERT_TRUE(gateway.RegisterNamespace("ds", BaseSpec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", s.model).ok());
  ResolveRequest request;
  request.block_all = true;
  ASSERT_TRUE(gateway.Resolve("ds", request).ok());
  ASSERT_TRUE(gateway.ResolveRecord("ds", s.workload.left().record(0)).ok());

  const std::string json = ExportTracesJson(gateway.RecentTraces());
  for (const char* key :
       {"\"traces\"", "\"request_id\"", "\"api\"", "\"namespace\"",
        "\"model_version\"", "\"start_ns\"", "\"total_ns\"", "\"stages\"",
        "\"top_risky\"", "\"max_risk\"", "\"head_sampled\"",
        "\"active_rules\"", "\"explanation\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // One trace object per line: exactly as many "request_id" lines as traces.
  size_t lines_with_id = 0;
  size_t pos = 0;
  while ((pos = json.find("\"request_id\"", pos)) != std::string::npos) {
    ++lines_with_id;
    pos += 1;
  }
  EXPECT_EQ(lines_with_id, gateway.RecentTraces().size());
  EXPECT_EQ(ExportTracesJson({}).rfind("{\"traces\": [", 0), 0u);
}

}  // namespace
}  // namespace learnrisk
