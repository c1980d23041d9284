// Copyright 2026 The LearnRisk Authors
// End-to-end review loop (paper Sec. 1, 7.4; r-HUMO's budgeted review):
// Resolve enqueues its riskiest decisions, DrainReview hands them out
// highest-risk-first, scripted oracle labels feed RetrainFromReview, and the
// retrained model hot-publishes under the same namespace. The label-
// efficiency test trains a real risk model (one-sided forest rules + the
// analytic-gradient trainer) so risk genuinely concentrates mislabeled
// pairs, then asserts the risk-ordered strategy reaches a target corrected
// F1 with strictly fewer oracle labels than seeded random selection — and
// that the whole loop (drain order, per-epoch retrain losses, served risk
// scores) is bit-identical across reruns.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "classifier/logistic.h"
#include "common/random.h"
#include "data/generators.h"
#include "eval/classification_metrics.h"
#include "eval/experiment.h"
#include "gateway/gateway.h"
#include "risk/risk_feature.h"
#include "risk/trainer.h"
#include "rules/one_sided_tree.h"

namespace learnrisk {
namespace {

// One prepared namespace with a *trained* risk model: a deliberately weak
// similarity-only classifier (so mislabels exist), one-sided forest rules
// from the workload's labeled pairs, and trainer-tuned rule weights — the
// full offline LearnRisk recipe, so high risk actually means likely wrong.
struct ReviewSetup {
  Workload workload;
  MetricSuite suite;
  std::shared_ptr<const BinaryClassifier> classifier;
  std::vector<size_t> classifier_columns;
  BlockingConfig blocking;
  std::shared_ptr<RiskModel> model;

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

const ReviewSetup& SharedSetup() {
  static const ReviewSetup* setup = [] {
    auto* s = new ReviewSetup();
    GeneratorOptions options;
    options.scale = 0.02;
    options.seed = 11;
    Result<Workload> generated = GenerateDataset("DS", options);
    EXPECT_TRUE(generated.ok()) << generated.status().ToString();
    s->workload = generated.MoveValueOrDie();
    s->suite = MetricSuite::ForSchema(s->workload.left().schema());
    s->suite.Fit(s->workload);
    // Similarity columns only (the paper's setting): difference metrics stay
    // exclusive knowledge of the risk rules.
    for (size_t c = 0; c < s->suite.specs().size(); ++c) {
      if (!IsDifferenceMetric(s->suite.specs()[c].kind)) {
        s->classifier_columns.push_back(c);
      }
    }

    const FeatureMatrix features = ComputeFeatures(s->workload, s->suite);
    const FeatureMatrix classifier_view =
        GatherColumns(features, s->classifier_columns);
    LogisticOptions classifier_options;
    classifier_options.epochs = 10;  // weak on purpose: mislabels must exist
    classifier_options.seed = 12;
    auto classifier = std::make_shared<LogisticClassifier>(classifier_options);
    EXPECT_TRUE(classifier->Train(classifier_view, s->workload.Labels()).ok());
    s->classifier = classifier;

    // Train the risk model on the workload's own labeled pairs.
    const std::vector<uint8_t>& truth = s->workload.Labels();
    const std::vector<double> probs =
        classifier->PredictProbaAll(classifier_view);
    std::vector<uint8_t> machine(probs.size());
    for (size_t i = 0; i < probs.size(); ++i) {
      machine[i] = probs[i] >= 0.5 ? 1 : 0;
    }
    auto rules = OneSidedForest::Generate(features, truth, {});
    EXPECT_TRUE(rules.ok()) << rules.status().ToString();
    RiskFeatureSet risk_features =
        RiskFeatureSet::Build(rules.MoveValueOrDie(), features, truth);
    s->model = std::make_shared<RiskModel>(risk_features);
    const RiskActivation activation =
        ComputeActivation(risk_features, features, probs);
    RiskTrainerOptions trainer_options;
    trainer_options.epochs = 120;
    trainer_options.seed = 5;
    RiskTrainer trainer(trainer_options);
    EXPECT_TRUE(
        trainer.Train(s->model.get(), activation, MislabelFlags(machine, truth))
            .ok());
    return s;
  }();
  return *setup;
}

// Review-enabled gateway with an effectively unbounded budget: every scored
// pair is offered, so the queue is the full risk-descending review frontier
// (the budgeted top-k path is exercised by the hammer and crash tests).
GatewayOptions ReviewEverythingOptions() {
  GatewayOptions options;
  options.review.enabled = true;
  options.review.per_request_budget = 1u << 20;
  options.review.queue_capacity = 1u << 20;
  return options;
}

using PairKey = std::pair<int64_t, int64_t>;

struct Frontier {
  std::vector<uint8_t> truth;    ///< oracle label per scored pair
  std::vector<uint8_t> machine;  ///< served machine label per scored pair
  std::map<PairKey, size_t> index;
};

Frontier MakeFrontier(const ResolveResponse& response) {
  Frontier f;
  f.truth.reserve(response.pairs.size());
  f.machine = response.scores.machine_label;
  for (size_t i = 0; i < response.pairs.size(); ++i) {
    const RecordPair& pair = response.pairs[i];
    f.truth.push_back(pair.is_equivalent ? 1 : 0);
    f.index.emplace(PairKey(static_cast<int64_t>(pair.left),
                            static_cast<int64_t>(pair.right)),
                    i);
  }
  return f;
}

TEST(GatewayReviewTest, RiskOrderedReviewBeatsRandomToTargetF1) {
  const ReviewSetup& s = SharedSetup();
  Gateway gateway(ReviewEverythingOptions());
  ASSERT_TRUE(gateway.RegisterNamespace("ds", s.Spec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", *s.model).ok());

  ResolveRequest request;
  request.block_all = true;
  const auto response = gateway.Resolve("ds", request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const Frontier f = MakeFrontier(*response);
  ASSERT_GT(f.truth.size(), 20u);

  const ConfusionMatrix base = Confusion(f.machine, f.truth);
  ASSERT_GE(base.mislabeled(), 4u)
      << "the weak classifier must make mistakes for review to matter";
  const double target_f1 = base.F1() + 0.5 * (1.0 - base.F1());

  // Risk-ordered strategy: drain the queue one pair at a time, submit the
  // oracle truth, stop at the target.
  std::vector<uint8_t> corrected = f.machine;
  size_t risk_spent = 0;
  double last_risk = std::numeric_limits<double>::infinity();
  while (Confusion(corrected, f.truth).F1() < target_f1) {
    auto items = gateway.DrainReview("ds", 1);
    ASSERT_TRUE(items.ok()) << items.status().ToString();
    ASSERT_FALSE(items->empty()) << "queue dry before reaching target F1";
    const ReviewItem& item = (*items)[0];
    EXPECT_LE(item.risk, last_risk) << "drain order must be risk-descending";
    last_risk = item.risk;
    const auto it = f.index.find(PairKey(item.left, item.right));
    ASSERT_NE(it, f.index.end());
    ASSERT_TRUE(gateway.SubmitReviewLabel("ds", item.left, item.right,
                                          f.truth[it->second]).ok());
    corrected[it->second] = f.truth[it->second];
    ++risk_spent;
  }

  // Random baseline: same oracle, seeded uniform pick over unlabeled pairs.
  std::vector<uint8_t> random_corrected = f.machine;
  std::vector<size_t> unlabeled(f.truth.size());
  std::iota(unlabeled.begin(), unlabeled.end(), 0);
  Rng rng(29);
  size_t random_spent = 0;
  while (Confusion(random_corrected, f.truth).F1() < target_f1) {
    ASSERT_FALSE(unlabeled.empty());
    const size_t pick = rng.Index(unlabeled.size());
    const size_t idx = unlabeled[pick];
    unlabeled[pick] = unlabeled.back();
    unlabeled.pop_back();
    random_corrected[idx] = f.truth[idx];
    ++random_spent;
  }

  EXPECT_GT(risk_spent, 0u);
  EXPECT_LT(risk_spent, random_spent)
      << "risk-ordered selection must reach F1 " << target_f1
      << " with strictly fewer labels (risk=" << risk_spent
      << ", random=" << random_spent << ")";

  // Queue accounting agrees with what the drain loop did.
  const auto stats = gateway.ReviewStats("ds");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->labels, risk_spent);
  EXPECT_EQ(stats->drained, risk_spent);
  EXPECT_EQ(stats->outstanding, 0u);
  EXPECT_EQ(stats->enqueued + stats->requeued,
            stats->drained + stats->dropped + stats->depth);
}

TEST(GatewayReviewTest, RetrainAndPublishBitIdenticalAcrossReruns) {
  const ReviewSetup& s = SharedSetup();

  // One full loop: resolve, label the top of the queue until the batch has
  // both mislabeled and correct pairs (the trainer needs both classes to
  // rank), retrain-and-publish, then re-resolve on the new model. Returns
  // everything determinism must cover.
  struct LoopRun {
    size_t labels = 0;
    size_t mislabeled = 0;
    std::vector<double> loss_history;
    std::vector<double> served_risk;
    uint64_t version = 0;
  };
  auto run_loop = [&]() {
    LoopRun out;
    Gateway gateway(ReviewEverythingOptions());
    EXPECT_TRUE(gateway.RegisterNamespace("ds", s.Spec()).ok());
    EXPECT_TRUE(gateway.Publish("ds", *s.model).ok());
    ResolveRequest request;
    request.block_all = true;
    const auto response = gateway.Resolve("ds", request);
    EXPECT_TRUE(response.ok());
    const Frontier f = MakeFrontier(*response);

    size_t mislabeled = 0;
    size_t correct = 0;
    // Drain highest-risk-first until the batch holds both classes (the
    // trainer needs mislabeled AND correct pairs to rank); the stopping
    // rule is a pure function of the deterministic drain order, so both
    // runs label the exact same set.
    for (;;) {
      auto items = gateway.DrainReview("ds", 1);
      EXPECT_TRUE(items.ok());
      if (!items.ok() || items->empty()) break;
      const ReviewItem& item = (*items)[0];
      const size_t idx = f.index.at(PairKey(item.left, item.right));
      EXPECT_TRUE(gateway.SubmitReviewLabel("ds", item.left, item.right,
                                            f.truth[idx]).ok());
      ++out.labels;
      (f.machine[idx] != f.truth[idx] ? mislabeled : correct) += 1;
      if (mislabeled >= 2 && correct >= 2) break;
    }
    out.mislabeled = mislabeled;

    const auto result = gateway.RetrainFromReview("ds");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (result.ok()) {
      out.loss_history = result->loss_history;
      out.version = result->model_version;
      EXPECT_EQ(result->labels_used, out.labels);
      EXPECT_EQ(result->mislabeled, mislabeled);
    }
    const auto after = gateway.Resolve("ds", request);
    EXPECT_TRUE(after.ok());
    out.served_risk = after->scores.risk;
    EXPECT_EQ(after->scores.model_version, out.version);
    return out;
  };

  const LoopRun first = run_loop();
  ASSERT_GE(first.mislabeled, 2u);
  ASSERT_GE(first.labels - first.mislabeled, 2u);
  ASSERT_FALSE(first.loss_history.empty());
  EXPECT_EQ(first.version, 2u);  // registration publish was version 1

  const LoopRun second = run_loop();
  EXPECT_EQ(second.labels, first.labels);
  // Bit-identical: per-epoch losses and the risk scores served after the
  // publish (operator== on doubles, no tolerance).
  EXPECT_EQ(second.loss_history, first.loss_history);
  EXPECT_EQ(second.served_risk, first.served_risk);
  EXPECT_EQ(second.version, first.version);
}

TEST(GatewayReviewTest, ReviewApiGatesAndErrorPaths) {
  const ReviewSetup& s = SharedSetup();

  // Review off: every review API is FailedPrecondition on a live namespace.
  Gateway off;  // default options: review disabled
  ASSERT_TRUE(off.RegisterNamespace("ds", s.Spec()).ok());
  EXPECT_TRUE(off.DrainReview("ds", 1).status().IsFailedPrecondition());
  EXPECT_TRUE(off.SubmitReviewLabel("ds", 0, 0, 1).IsFailedPrecondition());
  EXPECT_TRUE(off.RetrainFromReview("ds").status().IsFailedPrecondition());
  EXPECT_TRUE(off.ReviewStats("ds").status().IsFailedPrecondition());

  Gateway gateway(ReviewEverythingOptions());
  ASSERT_TRUE(gateway.RegisterNamespace("ds", s.Spec()).ok());
  // Unknown namespace stays NotFound.
  EXPECT_TRUE(gateway.DrainReview("nope", 1).status().IsNotFound());
  EXPECT_TRUE(gateway.ReviewStats("nope").status().IsNotFound());
  // A label for a pair nobody drained is NotFound.
  EXPECT_TRUE(gateway.SubmitReviewLabel("ds", 1, 2, 1).IsNotFound());
  // Below two labels the retrain refuses (here: zero labels).
  EXPECT_TRUE(gateway.RetrainFromReview("ds").status().IsFailedPrecondition());

  // With a model published, only the label-count gate stands between the
  // queue and a retrain: one label is refused, a second one is enough.
  ASSERT_TRUE(gateway.Publish("ds", *s.model).ok());
  ResolveRequest request;
  request.block_all = true;
  const auto response = gateway.Resolve("ds", request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  const Frontier f = MakeFrontier(*response);
  auto label_next = [&]() {
    const auto items = gateway.DrainReview("ds", 1);
    ASSERT_TRUE(items.ok()) << items.status().ToString();
    ASSERT_EQ(items->size(), 1u);
    const ReviewItem& item = (*items)[0];
    const size_t idx = f.index.at(PairKey(item.left, item.right));
    ASSERT_TRUE(
        gateway.SubmitReviewLabel("ds", item.left, item.right, f.truth[idx])
            .ok());
  };
  label_next();
  const auto one_label = gateway.RetrainFromReview("ds");
  EXPECT_TRUE(one_label.status().IsFailedPrecondition())
      << one_label.status().ToString();
  label_next();
  const auto two_labels = gateway.RetrainFromReview("ds");
  ASSERT_TRUE(two_labels.ok()) << two_labels.status().ToString();
  EXPECT_EQ(two_labels->labels_used, 2u);
  EXPECT_EQ(two_labels->model_version, 2u);
}

TEST(GatewayReviewTest, ProbeEnqueuesKeyedOnCandidateSide) {
  const ReviewSetup& s = SharedSetup();
  Gateway gateway(ReviewEverythingOptions());
  ASSERT_TRUE(gateway.RegisterNamespace("ds", s.Spec()).ok());
  ASSERT_TRUE(gateway.Publish("ds", *s.model).ok());

  const Record& probe = s.workload.right().record(0);
  const auto response = gateway.ResolveRecord("ds", probe);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_FALSE(response->candidates.empty());

  const auto items = gateway.DrainReview("ds", 1u << 20);
  ASSERT_TRUE(items.ok());
  ASSERT_FALSE(items->empty());
  for (const ReviewItem& item : *items) {
    EXPECT_EQ(item.left, -1) << "probes key on the candidate side alone";
    EXPECT_GE(item.right, 0);
    EXPECT_EQ(item.request_id, response->request_id);
    EXPECT_EQ(item.model_version, response->scores.model_version);
    EXPECT_FALSE(item.features.empty());
  }
}

}  // namespace
}  // namespace learnrisk
