// Copyright 2026 The LearnRisk Authors
// Gateway tests: Resolve's end-to-end path (blocking -> metrics ->
// classifier -> risk) is bit-identical to the offline TokenBlocking +
// MetricSuite + ServingEngine stages run by hand, for two concurrently
// served namespaces; multi-threaded publish/score shows no torn state;
// unknown-namespace / empty-request error paths and the order of scoring
// errors; every method's status for an unknown namespace, a mode the
// gateway has off and an unpublished model; a metric suite built for
// another schema; online AddRecord + ResolveRecord; and the prepared-bytes
// gauge.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "classifier/logistic.h"
#include "data/blocking.h"
#include "data/generators.h"
#include "eval/experiment.h"
#include "gateway/gateway.h"
#include "risk/risk_feature.h"
#include "test_models.h"

namespace learnrisk {
namespace {

// A trained-enough logistic classifier over the workload's own features.
std::shared_ptr<const BinaryClassifier> MakeClassifier(
    const FeatureMatrix& features, const std::vector<uint8_t>& labels,
    uint64_t seed) {
  LogisticOptions options;
  options.epochs = 40;
  options.seed = seed;
  auto classifier = std::make_shared<LogisticClassifier>(options);
  EXPECT_TRUE(classifier->Train(features, labels).ok());
  return classifier;
}

using testutil::MakeModel;  // synthetic perturbed-parameter risk models

// One prepared namespace: generated workload, fitted suite, trained
// classifier, and the hand-computed offline stages for parity checks.
struct TestNamespace {
  Workload workload;
  MetricSuite suite;
  std::shared_ptr<const BinaryClassifier> classifier;
  std::vector<size_t> classifier_columns;
  BlockingConfig blocking;
  std::vector<RecordPair> blocked_pairs;   ///< offline TokenBlocking output
  FeatureMatrix blocked_features;          ///< offline ComputeFeatures output
  std::vector<double> blocked_probs;       ///< offline classifier probs

  NamespaceSpec Spec() const {
    NamespaceSpec spec;
    spec.left = workload.left_ptr();
    spec.right = workload.right_ptr();
    spec.suite = suite;
    spec.classifier = classifier;
    spec.classifier_columns = classifier_columns;
    spec.blocking = blocking;
    return spec;
  }
};

TestNamespace MakeNamespace(const std::string& dataset, uint64_t seed,
                            bool subset_classifier_columns) {
  GeneratorOptions options;
  options.scale = 0.02;
  options.seed = seed;
  Result<Workload> generated = GenerateDataset(dataset, options);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();

  TestNamespace ns;
  ns.workload = generated.MoveValueOrDie();
  ns.suite = MetricSuite::ForSchema(ns.workload.left().schema());
  ns.suite.Fit(ns.workload);
  if (subset_classifier_columns) {
    // Similarity columns only — exercises the gather path the pipeline's
    // default configuration uses.
    for (size_t c = 0; c < ns.suite.specs().size(); ++c) {
      if (!IsDifferenceMetric(ns.suite.specs()[c].kind)) {
        ns.classifier_columns.push_back(c);
      }
    }
  }

  const FeatureMatrix train_features = ComputeFeatures(ns.workload, ns.suite);
  const FeatureMatrix classifier_features =
      ns.classifier_columns.empty()
          ? train_features
          : GatherColumns(train_features, ns.classifier_columns);
  ns.classifier =
      MakeClassifier(classifier_features, ns.workload.Labels(), seed + 1);

  // Offline stages, by hand: blocking, featurization, classifier probs.
  auto blocked =
      TokenBlocking(ns.workload.left(), ns.workload.right(), ns.blocking);
  EXPECT_TRUE(blocked.ok());
  ns.blocked_pairs = blocked.MoveValueOrDie();
  const Workload blocked_workload("blocked", ns.workload.left_ptr(),
                                  ns.workload.right_ptr(), ns.blocked_pairs);
  ns.blocked_features = ComputeFeatures(blocked_workload, ns.suite);
  ns.blocked_probs = ns.classifier->PredictProbaAll(
      ns.classifier_columns.empty()
          ? ns.blocked_features
          : GatherColumns(ns.blocked_features, ns.classifier_columns));
  return ns;
}

std::vector<double> OfflineScores(const TestNamespace& ns,
                                  const RiskModel& model) {
  ServingEngine engine;
  engine.Publish(model);
  ScoreRequest request;
  request.metric_features = &ns.blocked_features;
  request.classifier_probs = ns.blocked_probs;
  const auto response = engine.Score(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return response->risk;
}

TEST(GatewayTest, ResolveBitIdenticalToOfflineStagesAcrossNamespaces) {
  const TestNamespace ds = MakeNamespace("DS", 5, false);
  const TestNamespace sg = MakeNamespace("SG", 6, true);
  ASSERT_FALSE(ds.blocked_pairs.empty());
  ASSERT_FALSE(sg.blocked_pairs.empty());

  Gateway gateway;
  ASSERT_TRUE(gateway.RegisterNamespace("ds", ds.Spec()).ok());
  ASSERT_TRUE(gateway.RegisterNamespace("sg", sg.Spec()).ok());
  EXPECT_EQ(gateway.Namespaces().size(), 2u);

  const RiskModel ds_model = MakeModel(7, 48, ds.suite.num_metrics());
  const RiskModel sg_model = MakeModel(8, 32, sg.suite.num_metrics());
  // Versions are per namespace: each one's first publish is version 1.
  const auto ds_version = gateway.Publish("ds", ds_model);
  const auto sg_version = gateway.Publish("sg", sg_model);
  ASSERT_TRUE(ds_version.ok());
  ASSERT_TRUE(sg_version.ok());
  EXPECT_EQ(*ds_version, 1u);
  EXPECT_EQ(*sg_version, 1u);

  struct Case {
    const char* ns;
    const TestNamespace* prepared;
    const RiskModel* model;
  };
  for (const Case& c : {Case{"ds", &ds, &ds_model}, Case{"sg", &sg,
                                                         &sg_model}}) {
    const std::vector<double> expected = OfflineScores(*c.prepared, *c.model);
    // The registry's engine scores exactly like an offline ServingEngine.
    const auto engine = gateway.registry().Engine(c.ns);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ScoreRequest offline_request;
    offline_request.metric_features = &c.prepared->blocked_features;
    offline_request.classifier_probs = c.prepared->blocked_probs;
    const auto engine_scores = (*engine)->Score(offline_request);
    ASSERT_TRUE(engine_scores.ok());
    EXPECT_EQ(engine_scores->model_version, 1u);
    EXPECT_EQ(engine_scores->risk, expected) << c.ns;
    ResolveRequest request;
    request.block_all = true;
    request.explain_top_k = 3;
    const auto response = gateway.Resolve(c.ns, request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->pairs.size(), c.prepared->blocked_pairs.size());
    ASSERT_EQ(response->scores.risk.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(response->pairs[i].left, c.prepared->blocked_pairs[i].left);
      EXPECT_EQ(response->pairs[i].right, c.prepared->blocked_pairs[i].right);
      ASSERT_EQ(response->scores.risk[i], expected[i])  // exact, not NEAR
          << c.ns << " pair " << i;
      ASSERT_EQ(response->scores.machine_label[i],
                c.prepared->blocked_probs[i] >= 0.5 ? 1 : 0);
    }
    ASSERT_EQ(response->scores.explanations.size(), expected.size());
    EXPECT_GT(response->timing.total_ms(), 0.0);
  }
}

TEST(GatewayTest, ErrorPaths) {
  const TestNamespace ds = MakeNamespace("DS", 15, false);
  Gateway gateway;

  ResolveRequest block_all;
  block_all.block_all = true;
  EXPECT_TRUE(gateway.Resolve("nope", block_all).status().IsNotFound());
  EXPECT_TRUE(
      gateway.Publish("nope", MakeModel(1, 8, ds.suite.num_metrics()))
          .status()
          .IsNotFound());
  EXPECT_TRUE(gateway.registry().Engine("unknown").status().IsNotFound());

  ASSERT_TRUE(gateway.RegisterNamespace("ds", ds.Spec()).ok());
  EXPECT_TRUE(
      gateway.RegisterNamespace("ds", ds.Spec()).IsFailedPrecondition());
  EXPECT_TRUE(gateway.RegisterNamespace("bad name!", ds.Spec())
                  .IsInvalidArgument());

  // Empty and ambiguous requests.
  EXPECT_TRUE(gateway.Resolve("ds", ResolveRequest{}).status()
                  .IsInvalidArgument());
  ResolveRequest ambiguous;
  ambiguous.block_all = true;
  ambiguous.pairs.push_back(RecordPair{0, 0, false});
  EXPECT_TRUE(gateway.Resolve("ds", ambiguous).status().IsInvalidArgument());

  // Registered but nothing published yet.
  EXPECT_TRUE(
      gateway.Resolve("ds", block_all).status().IsFailedPrecondition());

  ASSERT_TRUE(
      gateway.Publish("ds", MakeModel(2, 16, ds.suite.num_metrics())).ok());
  ResolveRequest out_of_range;
  out_of_range.pairs.push_back(
      RecordPair{ds.workload.left().num_records(), 0, false});
  EXPECT_TRUE(gateway.Resolve("ds", out_of_range).status().IsOutOfRange());

  Record narrow;
  narrow.values = {"x"};
  EXPECT_TRUE(
      gateway.ResolveRecord("ds", narrow).status().IsInvalidArgument());
  EXPECT_TRUE(gateway
                  .AddRecord("ds", BlockingSide::kLeft, narrow, 1)
                  .IsInvalidArgument());
}

TEST(GatewayTest, RegistrationRejectsAnInvalidBlockingConfig) {
  const TestNamespace ds = MakeNamespace("DS", 15, false);
  Gateway gateway;
  NamespaceSpec nan_df = ds.Spec();
  nan_df.blocking.max_token_df = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(gateway.RegisterNamespace("nan_df", nan_df).IsInvalidArgument());
  NamespaceSpec negative_df = ds.Spec();
  negative_df.blocking.max_token_df = -1.0;
  EXPECT_TRUE(gateway.RegisterNamespace("negative_df", negative_df)
                  .IsInvalidArgument());
  NamespaceSpec infinite_df = ds.Spec();
  infinite_df.blocking.max_token_df = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(gateway.RegisterNamespace("infinite_df", infinite_df)
                  .IsInvalidArgument());
  NamespaceSpec bad_key = ds.Spec();
  bad_key.blocking.key_attribute = ds.workload.left().schema().num_attributes();
  EXPECT_TRUE(
      gateway.RegisterNamespace("bad_key", bad_key).IsInvalidArgument());
  // Nothing was half-registered: the valid spec still registers.
  EXPECT_TRUE(gateway.RegisterNamespace("nan_df", ds.Spec()).ok());
}

// A metric suite built for another dataset's schema would featurize the
// wrong attributes: registration checks it against the left table's
// schema, recovery against the spec's schema, both before touching disk.
TEST(GatewayTest, RejectsAMetricSuiteBuiltForAnotherSchema) {
  const TestNamespace ds = MakeNamespace("DS", 15, false);
  const std::string dir =
      ::testing::TempDir() + "/learnrisk_gateway_suite_schema";
  std::filesystem::remove_all(dir);
  GatewayOptions options;
  options.durability.dir = dir;
  RecoverNamespaceSpec recover;
  recover.schema = ds.workload.left().schema();
  recover.classifier = ds.classifier;
  recover.blocking = ds.blocking;
  for (const char* dataset : {"AB", "SG"}) {
    GeneratorOptions generator;
    generator.scale = 0.02;
    generator.seed = 3;
    Result<Workload> other = GenerateDataset(dataset, generator);
    ASSERT_TRUE(other.ok()) << other.status().ToString();
    MetricSuite suite = MetricSuite::ForSchema(other->left().schema());
    suite.Fit(*other);
    Gateway gateway(options);
    NamespaceSpec spec = ds.Spec();
    spec.suite = suite;
    EXPECT_TRUE(gateway.RegisterNamespace("ds", spec).IsInvalidArgument())
        << dataset;
    recover.suite = suite;
    EXPECT_TRUE(gateway.RecoverNamespace("ds", recover).IsInvalidArgument())
        << dataset;
    EXPECT_FALSE(gateway.HasNamespace("ds")) << dataset;
  }
  // The DS suite registers, and recovers on a restarted gateway.
  {
    Gateway gateway(options);
    ASSERT_TRUE(gateway.RegisterNamespace("ds", ds.Spec()).ok());
  }
  Gateway restarted(options);
  recover.suite = ds.suite;
  EXPECT_TRUE(restarted.RecoverNamespace("ds", recover).ok());
  std::filesystem::remove_all(dir);
}

// The status every public method returns for an unknown namespace, for a
// mode the gateway has off and before the first publish; and the record
// and WAL-backlog gauges agree with NumRecords / WalEntriesSinceCheckpoint.
TEST(GatewayTest, StatusesOfUnknownNamespacesModesAndUnpublishedModels) {
  const TestNamespace ds = MakeNamespace("DS", 15, false);
  const std::string dir = ::testing::TempDir() + "/learnrisk_gateway_modes";
  std::filesystem::remove_all(dir);
  const Record record = ds.workload.left().record(0);
  ResolveRequest block_all;
  block_all.block_all = true;
  using Call = std::function<Status(Gateway&, const std::string&)>;
  const std::map<std::string, Call> calls = {
      {"Publish",
       [&](Gateway& g, const std::string& ns) {
         return g.Publish(ns, MakeModel(1, 8, ds.suite.num_metrics()))
             .status();
       }},
      {"Resolve",
       [&](Gateway& g, const std::string& ns) {
         return g.Resolve(ns, block_all).status();
       }},
      {"ResolveRecord",
       [&](Gateway& g, const std::string& ns) {
         return g.ResolveRecord(ns, record).status();
       }},
      {"AddRecord",
       [&](Gateway& g, const std::string& ns) {
         return g.AddRecord(ns, BlockingSide::kLeft, record);
       }},
      {"NumRecords",
       [](Gateway& g, const std::string& ns) {
         return g.NumRecords(ns, BlockingSide::kLeft).status();
       }},
      {"Checkpoint",
       [](Gateway& g, const std::string& ns) { return g.Checkpoint(ns); }},
      {"WalEntriesSinceCheckpoint",
       [](Gateway& g, const std::string& ns) {
         return g.WalEntriesSinceCheckpoint(ns).status();
       }},
      {"DrainReview",
       [](Gateway& g, const std::string& ns) {
         return g.DrainReview(ns, 1).status();
       }},
      {"SubmitReviewLabel",
       [](Gateway& g, const std::string& ns) {
         return g.SubmitReviewLabel(ns, 0, 0, 1);
       }},
      {"RetrainFromReview",
       [](Gateway& g, const std::string& ns) {
         return g.RetrainFromReview(ns).status();
       }},
      {"ReviewStats",
       [](Gateway& g, const std::string& ns) {
         return g.ReviewStats(ns).status();
       }},
  };
  // Non-durable with review off, durable with review on: the namespace
  // lookup runs before either mode check.
  GatewayOptions plain_options;
  plain_options.review.enabled = false;
  GatewayOptions durable_options;
  durable_options.durability.dir = dir;
  durable_options.review.enabled = true;
  Gateway plain(plain_options);
  Gateway durable(durable_options);
  for (Gateway* g : {&plain, &durable}) {
    for (const auto& [name, fn] : calls) {
      EXPECT_TRUE(fn(*g, "missing").IsNotFound()) << name;
    }
  }
  RecoverNamespaceSpec recover;
  recover.schema = ds.workload.left().schema();
  recover.suite = ds.suite;
  recover.classifier = ds.classifier;
  recover.blocking = ds.blocking;
  EXPECT_TRUE(durable.RecoverNamespace("missing", recover).IsNotFound());

  // Durability off: its three methods refuse.
  ASSERT_TRUE(plain.RegisterNamespace("ds", ds.Spec()).ok());
  for (const char* method : {"Checkpoint", "WalEntriesSinceCheckpoint"}) {
    EXPECT_TRUE(calls.at(method)(plain, "ds").IsFailedPrecondition())
        << method;
  }
  EXPECT_TRUE(plain.RecoverNamespace("ds2", recover).IsFailedPrecondition());

  // Before the first publish, on a durable 2-shard namespace.
  NamespaceSpec sharded = ds.Spec();
  sharded.shards = 2;
  ASSERT_TRUE(durable.RegisterNamespace("ds", sharded).ok());
  for (const char* method :
       {"Resolve", "ResolveRecord", "RetrainFromReview"}) {
    EXPECT_TRUE(calls.at(method)(durable, "ds").IsFailedPrecondition())
        << method;
  }

  // The gauges count what the methods count.
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(durable
                    .AddRecord("ds", i % 2 == 0 ? BlockingSide::kLeft
                                                : BlockingSide::kRight,
                               ds.workload.right().record(i))
                    .ok());
  }
  const learnrisk::MetricsSnapshot snap = durable.MetricsSnapshot();
  for (const auto& [side, label] :
       {std::pair<BlockingSide, const char*>{BlockingSide::kLeft, "left"},
        {BlockingSide::kRight, "right"}}) {
    const GaugeSnapshot* records = snap.FindGauge(
        "learnrisk_gateway_records", {{"namespace", "ds"}, {"side", label}});
    ASSERT_NE(records, nullptr) << label;
    EXPECT_EQ(records->value,
              static_cast<int64_t>(*durable.NumRecords("ds", side)))
        << label;
  }
  const GaugeSnapshot* backlog =
      snap.FindGauge("learnrisk_gateway_wal_entries_since_checkpoint",
                     {{"namespace", "ds"}});
  ASSERT_NE(backlog, nullptr);
  EXPECT_EQ(backlog->value, 5);
  EXPECT_EQ(backlog->value,
            static_cast<int64_t>(*durable.WalEntriesSinceCheckpoint("ds")));
  std::filesystem::remove_all(dir);
}

// A classifier whose every probability is NaN.
class NanClassifier : public BinaryClassifier {
 public:
  Status Train(const FeatureMatrix&, const std::vector<uint8_t>&) override {
    return Status::OK();
  }
  double PredictProba(const double*, size_t) const override {
    return std::numeric_limits<double>::quiet_NaN();
  }
};

// A request fails as ServingEngine::Score would on its batch: an invalid
// classifier probability is reported before a published model whose rules
// read more metric columns than the namespace computes.
TEST(GatewayTest, InvalidProbabilityReportedBeforeNarrowMetricRows) {
  const TestNamespace ds = MakeNamespace("DS", 15, false);
  const size_t cols = ds.suite.num_metrics();
  const RiskModel wide = MakeModel(3, 64, cols + 8);
  ASSERT_GT(wide.features().compiled().min_feature_columns(), cols);

  ResolveRequest block_all;
  block_all.block_all = true;
  Gateway valid_probs;
  ASSERT_TRUE(valid_probs.RegisterNamespace("ds", ds.Spec()).ok());
  ASSERT_TRUE(valid_probs.Publish("ds", wide).ok());
  const Status narrow = valid_probs.Resolve("ds", block_all).status();
  EXPECT_TRUE(narrow.IsInvalidArgument());
  EXPECT_NE(narrow.message().find("fewer columns"), std::string::npos)
      << narrow.ToString();

  NamespaceSpec spec = ds.Spec();
  spec.classifier = std::make_shared<NanClassifier>();
  Gateway nan_probs;
  ASSERT_TRUE(nan_probs.RegisterNamespace("ds", spec).ok());
  ASSERT_TRUE(nan_probs.Publish("ds", wide).ok());
  const Status invalid = nan_probs.Resolve("ds", block_all).status();
  EXPECT_TRUE(invalid.IsInvalidArgument());
  EXPECT_NE(invalid.message().find("classifier_probs[0]"), std::string::npos)
      << invalid.ToString();
  const Record probe = ds.workload.left().record(0);
  const Status probe_invalid = nan_probs.ResolveRecord("ds", probe).status();
  EXPECT_NE(probe_invalid.message().find("classifier_probs[0]"),
            std::string::npos)
      << probe_invalid.ToString();
}

TEST(GatewayTest, AddRecordMakesProbeFindNewCandidates) {
  const TestNamespace ds = MakeNamespace("DS", 25, false);
  Gateway gateway;
  ASSERT_TRUE(gateway.RegisterNamespace("ds", ds.Spec()).ok());
  ASSERT_TRUE(
      gateway.Publish("ds", MakeModel(3, 24, ds.suite.num_metrics())).ok());

  // Probe with a copy of a left record whose title tokens exist on the
  // right side after we add a matching record there.
  const Record probe = ds.workload.left().record(0);
  const size_t before = *gateway.NumRecords("ds", BlockingSide::kRight);
  ASSERT_TRUE(
      gateway.AddRecord("ds", BlockingSide::kRight, probe, -1).ok());
  EXPECT_EQ(*gateway.NumRecords("ds", BlockingSide::kRight), before + 1);

  const auto response = gateway.ResolveRecord("ds", probe, 2);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  // The just-added identical record shares every token, so it must block.
  EXPECT_TRUE(std::find(response->candidates.begin(),
                        response->candidates.end(),
                        before) != response->candidates.end());
  ASSERT_EQ(response->scores.risk.size(), response->candidates.size());
  ASSERT_EQ(response->scores.explanations.size(),
            response->candidates.size());
  for (double risk : response->scores.risk) {
    EXPECT_TRUE(std::isfinite(risk));
  }
}

// learnrisk_gateway_prepared_bytes reports, per side, the bytes of the
// prepared caches of every visible record: on a 2-shard namespace it equals
// PreparedRecord::Bytes() summed over the side's records, and an AddRecord
// grows it by exactly the added record's.
TEST(GatewayTest, PreparedBytesGaugeSumsTheVisibleRecords) {
  const TestNamespace ds = MakeNamespace("DS", 31, false);
  NamespaceSpec spec = ds.Spec();
  spec.shards = 2;
  Gateway gateway;
  ASSERT_TRUE(gateway.RegisterNamespace("ds", spec).ok());
  auto gauge = [&](const char* side) {
    const learnrisk::MetricsSnapshot snap = gateway.MetricsSnapshot();
    const GaugeSnapshot* bytes = snap.FindGauge(
        "learnrisk_gateway_prepared_bytes",
        {{"namespace", "ds"}, {"side", side}});
    EXPECT_NE(bytes, nullptr) << side;
    return bytes == nullptr ? int64_t{-1} : bytes->value;
  };
  auto table_bytes = [&](const Table& table) {
    int64_t total = 0;
    for (size_t i = 0; i < table.num_records(); ++i) {
      total += static_cast<int64_t>(
          ds.suite.PrepareRecord(table.record(i)).Bytes());
    }
    return total;
  };
  const int64_t left = table_bytes(ds.workload.left());
  EXPECT_GT(left, 0);
  EXPECT_EQ(gauge("left"), left);
  EXPECT_EQ(gauge("right"), table_bytes(ds.workload.right()));

  const Record added = ds.workload.right().record(0);
  ASSERT_TRUE(gateway.AddRecord("ds", BlockingSide::kLeft, added).ok());
  const int64_t grown = gauge("left");
  EXPECT_GT(grown, left);
  EXPECT_EQ(grown,
            left + static_cast<int64_t>(ds.suite.PrepareRecord(added).Bytes()));
  EXPECT_EQ(gauge("right"), table_bytes(ds.workload.right()));
}

// Readers resolve fixed pair batches on two namespaces while the main
// thread keeps publishing alternating models to both; every response must
// match one published model's hand-computed scores exactly and entirely.
TEST(GatewayTest, ConcurrentPublishAndResolveSeesNoTornState) {
  constexpr size_t kModels = 3;
  constexpr size_t kPublishes = 30;

  const TestNamespace ds = MakeNamespace("DS", 35, false);
  const TestNamespace sg = MakeNamespace("SG", 36, false);

  struct NsCase {
    const char* name;
    const TestNamespace* prepared;
    std::vector<RiskModel> models;
    std::vector<std::vector<double>> expected;
  };
  NsCase cases[2] = {{"ds", &ds, {}, {}}, {"sg", &sg, {}, {}}};
  Gateway gateway;
  for (NsCase& c : cases) {
    ASSERT_TRUE(gateway.RegisterNamespace(c.name, c.prepared->Spec()).ok());
    for (size_t k = 0; k < kModels; ++k) {
      c.models.push_back(
          MakeModel(100 + k, 40, c.prepared->suite.num_metrics()));
      c.expected.push_back(OfflineScores(*c.prepared, c.models.back()));
    }
    ASSERT_TRUE(gateway.Publish(c.name, c.models[0]).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::atomic<size_t> total_reads{0};
  std::vector<std::thread> readers;
  for (const NsCase& c : cases) {
    readers.emplace_back([&gateway, &c, &stop, &failed, &total_reads]() {
      ResolveRequest request;
      request.pairs = c.prepared->blocked_pairs;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto response = gateway.Resolve(c.name, request);
        if (!response.ok() || response->scores.model_version == 0) {
          failed.store(true);
          return;
        }
        const size_t index =
            static_cast<size_t>((response->scores.model_version - 1) %
                                kModels);
        if (response->scores.risk != c.expected[index]) {
          failed.store(true);
          return;
        }
        total_reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (size_t p = 1; p <= kPublishes; ++p) {
    for (NsCase& c : cases) {
      const auto version = gateway.Publish(c.name, c.models[p % kModels]);
      ASSERT_TRUE(version.ok());
      EXPECT_EQ(*version, p + 1);  // per-namespace versions, publish order
    }
    std::this_thread::yield();
  }
  // Publishing can be much faster than one featurize+score round trip; give
  // the readers a moment to complete at least one read against the final
  // state before stopping them.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (total_reads.load() == 0 && !failed.load() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(total_reads.load(), 0u);
}

}  // namespace
}  // namespace learnrisk
