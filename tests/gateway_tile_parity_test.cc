// Copyright 2026 The LearnRisk Authors
// Tile-boundary parity for the gateway's tiled request pass. Resolve and
// ResolveRecord featurize, classify, score, observe drift and rank rows
// kServeTileRows at a time inside each parallel chunk; this suite checks
// that every observable output equals the whole-matrix reference
// (FeaturePipeline::RunPrepared + ServingEngine::Score + ObserveFeatures +
// a partial sort of the risk column), bit for bit, at batch sizes that
// straddle tile boundaries (1, T-1, T, T+1, 3T+5), for a full block_all,
// for one ResolveRecord, and at a review budget above every chunk's row
// count — serial (one chunk, many tiles) and on the shared pool (many
// chunks). Compared: risk bits, machine labels and explanations; the
// review queue's offered items with their feature rows; the captured
// trace's top-k decisions with their active rules; and every drift
// histogram and PSI gauge.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "classifier/logistic.h"
#include "data/generators.h"
#include "gateway/gateway.h"
#include "obs/drift.h"
#include "obs/trace.h"
#include "risk/risk_feature.h"
#include "serve/serving_engine.h"
#include "test_models.h"

namespace learnrisk {
namespace {

using testutil::MakeModel;

constexpr size_t kT = kServeTileRows;
constexpr size_t kReviewBudget = 40;
constexpr size_t kTraceTopK = 5;
constexpr size_t kExplainTopK = 3;
constexpr char kNs[] = "ds";

struct SharedSetup {
  Workload workload;
  MetricSuite suite;
  std::shared_ptr<const BinaryClassifier> classifier;
  RiskModel model{RiskFeatureSet()};
  std::shared_ptr<const DriftBaseline> baseline;
  FeaturePipeline pipeline;
  PreparedTable left;
  PreparedTable right;

  SharedSetup() {
    GeneratorOptions options;
    options.scale = 0.05;
    options.seed = 321;
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
    model = MakeModel(17, 32, suite.num_metrics());
    baseline = std::make_shared<const DriftBaseline>(
        DriftBaseline::FromTraining(features));
    pipeline = FeaturePipeline(suite, classifier);
    left = PreparedTable::Build(workload.left(), suite);
    right = PreparedTable::Build(workload.right(), suite);
  }
};

const SharedSetup& Shared() {
  static const SharedSetup* setup = new SharedSetup();
  return *setup;
}

// A gateway with review, tracing (every request captured) and drift on,
// serving the shared model with its drift baseline.
std::unique_ptr<Gateway> MakeGateway(size_t parallelism,
                                     size_t review_budget = kReviewBudget) {
  const SharedSetup& s = Shared();
  GatewayOptions options;
  options.request_parallelism = parallelism;
  options.trace.sample_every = 1;
  options.trace.top_k = kTraceTopK;
  options.review.enabled = true;
  options.review.per_request_budget = review_budget;
  options.review.queue_capacity = 1 << 16;
  auto gateway = std::make_unique<Gateway>(options);
  NamespaceSpec spec;
  spec.left = s.workload.left_ptr();
  spec.right = s.workload.right_ptr();
  spec.suite = s.suite;
  spec.classifier = s.classifier;
  EXPECT_TRUE(gateway->RegisterNamespace(kNs, spec).ok());
  EXPECT_TRUE(gateway->Publish(kNs, s.model, s.baseline).ok());
  return gateway;
}

// `n` distinct explicit pairs walking the left x right grid.
std::vector<RecordPair> GridPairs(size_t n) {
  const SharedSetup& s = Shared();
  const size_t rows = s.workload.left().num_records();
  const size_t cols = s.workload.right().num_records();
  EXPECT_LE(n, rows * cols);
  std::vector<RecordPair> pairs;
  for (size_t i = 0; i < n; ++i) {
    pairs.push_back(RecordPair{i % rows, (i / rows) % cols, false});
  }
  return pairs;
}

// The whole-matrix reference of one request.
struct Reference {
  FeaturizedBatch batch;
  ScoreResponse scores;
  std::vector<size_t> top;  ///< risk descending, then row ascending
};

Reference WholeMatrix(Result<FeaturizedBatch> batch,
                      size_t review_budget = kReviewBudget) {
  const SharedSetup& s = Shared();
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  Reference ref;
  ref.batch = batch.MoveValueOrDie();
  ServingEngine engine;
  engine.Publish(s.model);
  ScoreRequest request;
  request.metric_features = &ref.batch.features;
  request.classifier_probs = ref.batch.probs;
  request.explain_top_k = kExplainTopK;
  Result<ScoreResponse> scores = engine.Score(request);
  EXPECT_TRUE(scores.ok()) << scores.status().ToString();
  ref.scores = scores.MoveValueOrDie();

  // The raw-parameter reference scores the same bits as the engine.
  const std::vector<double> reference_risk = testutil::ReferenceRiskScores(
      s.model, ref.batch.features, ref.batch.probs);
  EXPECT_EQ(0, std::memcmp(reference_risk.data(), ref.scores.risk.data(),
                           reference_risk.size() * sizeof(double)));

  const std::vector<double>& risk = ref.scores.risk;
  ref.top.resize(risk.size());
  std::iota(ref.top.begin(), ref.top.end(), size_t{0});
  const size_t k = std::min(review_budget, risk.size());
  std::partial_sort(ref.top.begin(), ref.top.begin() + k, ref.top.end(),
                    [&risk](size_t a, size_t b) {
                      if (risk[a] != risk[b]) return risk[a] > risk[b];
                      return a < b;
                    });
  ref.top.resize(k);
  return ref;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void ExpectSameScores(const ScoreResponse& got, const ScoreResponse& want) {
  ASSERT_EQ(got.risk.size(), want.risk.size());
  for (size_t i = 0; i < want.risk.size(); ++i) {
    ASSERT_TRUE(SameBits(got.risk[i], want.risk[i])) << "row " << i;
  }
  EXPECT_EQ(got.machine_label, want.machine_label);
  ASSERT_EQ(got.explanations.size(), want.explanations.size());
  for (size_t i = 0; i < want.explanations.size(); ++i) {
    const auto& g = got.explanations[i];
    const auto& w = want.explanations[i];
    ASSERT_EQ(g.size(), w.size()) << "row " << i;
    for (size_t j = 0; j < w.size(); ++j) {
      EXPECT_EQ(g[j].description, w[j].description);
      EXPECT_TRUE(SameBits(g[j].weight, w[j].weight));
      EXPECT_TRUE(SameBits(g[j].expectation, w[j].expectation));
      EXPECT_TRUE(SameBits(g[j].rsd, w[j].rsd));
    }
  }
}

// Left key of row `row` as the gateway records it (-1 for probe rows).
int64_t LeftKey(const std::vector<RecordPair>* pairs, size_t row) {
  return pairs == nullptr ? -1 : static_cast<int64_t>((*pairs)[row].left);
}

void ExpectSameReview(Gateway& gateway, const Reference& ref,
                      const std::vector<RecordPair>* pairs,
                      const std::vector<size_t>& rights) {
  Result<std::vector<ReviewItem>> drained =
      gateway.DrainReview(kNs, 1 << 16);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  std::vector<ReviewItem> got = drained.MoveValueOrDie();
  auto by_key = [](const ReviewItem& a, const ReviewItem& b) {
    return a.left != b.left ? a.left < b.left : a.right < b.right;
  };
  std::sort(got.begin(), got.end(), by_key);
  std::vector<ReviewItem> want;
  const FeatureMatrix& features = ref.batch.features;
  for (size_t row : ref.top) {
    ReviewItem item;
    item.left = LeftKey(pairs, row);
    item.right = static_cast<int64_t>(rights[row]);
    item.risk = ref.scores.risk[row];
    item.classifier_prob = ref.batch.probs[row];
    item.machine_label = ref.scores.machine_label[row];
    item.features.assign(features.row(row),
                         features.row(row) + features.cols());
    want.push_back(std::move(item));
  }
  std::sort(want.begin(), want.end(), by_key);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].left, want[i].left);
    EXPECT_EQ(got[i].right, want[i].right);
    EXPECT_TRUE(SameBits(got[i].risk, want[i].risk));
    EXPECT_TRUE(SameBits(got[i].classifier_prob, want[i].classifier_prob));
    EXPECT_EQ(got[i].machine_label, want[i].machine_label);
    ASSERT_EQ(got[i].features.size(), want[i].features.size());
    EXPECT_EQ(0, std::memcmp(got[i].features.data(), want[i].features.data(),
                             want[i].features.size() * sizeof(double)));
  }
}

void ExpectSameTrace(const Gateway& gateway, const Reference& ref,
                     const std::vector<RecordPair>* pairs,
                     const std::vector<size_t>& rights) {
  const SharedSetup& s = Shared();
  const auto traces = gateway.RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  const RequestTrace& trace = *traces[0];
  const size_t k = std::min(kTraceTopK, ref.top.size());
  ASSERT_EQ(trace.top_risky.size(), k);
  for (size_t rank = 0; rank < k; ++rank) {
    const size_t row = ref.top[rank];
    const TracedDecision& d = trace.top_risky[rank];
    EXPECT_EQ(d.left, LeftKey(pairs, row));
    EXPECT_EQ(d.right, static_cast<int64_t>(rights[row]));
    EXPECT_TRUE(SameBits(d.risk, ref.scores.risk[row]));
    EXPECT_TRUE(SameBits(d.classifier_prob, ref.batch.probs[row]));
    EXPECT_EQ(d.active_rules, s.model.features().compiled().ActiveRules(
                                  ref.batch.features.row(row)));
  }
}

void ExpectSameHistogram(const HistogramSnapshot* got,
                         const HistogramSnapshot& want,
                         const std::string& column) {
  ASSERT_NE(got, nullptr) << column;
  EXPECT_EQ(got->count, want.count) << column;
  EXPECT_EQ(got->sum, want.sum) << column;
  EXPECT_EQ(got->min, want.min) << column;
  EXPECT_EQ(got->max, want.max) << column;
  ASSERT_EQ(got->buckets.size(), want.buckets.size()) << column;
  for (size_t b = 0; b < want.buckets.size(); ++b) {
    EXPECT_EQ(got->buckets[b].upper_bound, want.buckets[b].upper_bound);
    EXPECT_EQ(got->buckets[b].count, want.buckets[b].count) << column;
  }
}

void ExpectSameDrift(const Gateway& gateway, const Reference& ref) {
  const SharedSetup& s = Shared();
  const std::vector<std::string> names = s.suite.MetricNames();
  std::vector<std::unique_ptr<ValueHistogram>> owned;
  std::vector<ValueHistogram*> columns;
  for (size_t c = 0; c < names.size(); ++c) {
    owned.push_back(std::make_unique<ValueHistogram>());
    columns.push_back(owned.back().get());
  }
  ObserveFeatures(ref.batch.features, columns);
  ValueHistogram risk;
  for (double r : ref.scores.risk) risk.Record(r);

  const MetricsSnapshot snap = gateway.MetricsSnapshot();
  for (size_t c = 0; c < names.size(); ++c) {
    const MetricLabels labels = {{"column", names[c]}, {"namespace", kNs}};
    const HistogramSnapshot want = columns[c]->Snapshot();
    ExpectSameHistogram(
        snap.FindHistogram("learnrisk_gateway_feature_value", labels), want,
        names[c]);
    const GaugeSnapshot* psi =
        snap.FindGauge("learnrisk_gateway_drift_psi_micros", labels);
    ASSERT_NE(psi, nullptr) << names[c];
    EXPECT_EQ(psi->value, PsiMicros(s.baseline->columns()[c], want))
        << names[c];
  }
  ExpectSameHistogram(
      snap.FindHistogram("learnrisk_gateway_risk_score", {{"namespace", kNs}}),
      risk.Snapshot(), "risk_score");
}

// One Resolve of `pairs` (block_all when empty) on a fresh gateway, checked
// against the whole-matrix reference over the pairs it scored.
void CheckResolve(size_t parallelism, const std::vector<RecordPair>& pairs,
                  size_t review_budget = kReviewBudget) {
  const SharedSetup& s = Shared();
  std::unique_ptr<Gateway> gateway = MakeGateway(parallelism, review_budget);
  ResolveRequest request;
  request.pairs = pairs;
  request.block_all = pairs.empty();
  request.explain_top_k = kExplainTopK;
  Result<ResolveResponse> response = gateway->Resolve(kNs, request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_FALSE(response->pairs.empty());

  const Reference ref = WholeMatrix(
      s.pipeline.RunPrepared(s.left, s.right, response->pairs), review_budget);
  ExpectSameScores(response->scores, ref.scores);
  std::vector<size_t> rights;
  for (const RecordPair& pair : response->pairs) rights.push_back(pair.right);
  ExpectSameReview(*gateway, ref, &response->pairs, rights);
  ExpectSameTrace(*gateway, ref, &response->pairs, rights);
  ExpectSameDrift(*gateway, ref);
}

class TileParityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TileParityTest, ExplicitBatchesAcrossTileBoundaries) {
  for (size_t n : {size_t{1}, kT - 1, kT, kT + 1, 3 * kT + 5}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    CheckResolve(GetParam(), GridPairs(n));
  }
  // A review budget above the request's row count: every chunk keeps all of
  // its rows, and the request-wide merge ranks and offers every row. On the
  // pool, 301 rows split into chunks of unequal size (76, 76, 76 and 73 on
  // four threads), so the last chunk keeps fewer rows than its slots.
  SCOPED_TRACE("n=301, review budget 400");
  CheckResolve(GetParam(), GridPairs(301), 400);
}

TEST_P(TileParityTest, BlockAll) {
  std::unique_ptr<Gateway> gateway = MakeGateway(GetParam());
  ResolveRequest block_all;
  block_all.block_all = true;
  Result<ResolveResponse> sized = gateway->Resolve(kNs, block_all);
  ASSERT_TRUE(sized.ok()) << sized.status().ToString();
  // The namespace is large enough for a block_all to span several tiles.
  ASSERT_GT(sized->pairs.size(), 2 * kT);
  CheckResolve(GetParam(), {});
}

TEST_P(TileParityTest, ResolveRecord) {
  const SharedSetup& s = Shared();
  std::unique_ptr<Gateway> gateway = MakeGateway(GetParam());
  // The left record with the most candidates.
  size_t best = 0;
  size_t most = 0;
  for (size_t i = 0; i < s.workload.left().num_records(); i += 5) {
    Result<ProbeResponse> probe =
        gateway->ResolveRecord(kNs, s.workload.left().record(i));
    ASSERT_TRUE(probe.ok());
    if (probe->candidates.size() > most) {
      most = probe->candidates.size();
      best = i;
    }
  }
  ASSERT_GT(most, 1u);

  gateway = MakeGateway(GetParam());
  const Record& record = s.workload.left().record(best);
  Result<ProbeResponse> response =
      gateway->ResolveRecord(kNs, record, kExplainTopK);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const Reference ref = WholeMatrix(s.pipeline.RunProbePrepared(
      s.pipeline.Prepare(record), s.right, response->candidates));
  ExpectSameScores(response->scores, ref.scores);
  ExpectSameReview(*gateway, ref, nullptr, response->candidates);
  ExpectSameTrace(*gateway, ref, nullptr, response->candidates);
  ExpectSameDrift(*gateway, ref);
}

// request_parallelism 1 runs one chunk of many tiles; 0 spreads the rows
// over the shared pool's chunks.
INSTANTIATE_TEST_SUITE_P(Parallelism, TileParityTest,
                         ::testing::Values(size_t{1}, size_t{0}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return info.param == 1 ? std::string("Serial")
                                                  : std::string("Pool");
                         });

}  // namespace
}  // namespace learnrisk
