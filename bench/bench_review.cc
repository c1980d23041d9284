// Copyright 2026 The LearnRisk Authors
//
// Review-loop bench: the paper's closing argument (Sec. 1, 7.4) is that
// risk-directed review spends human labels where the classifier is wrong,
// so a budgeted reviewer reaches a target corrected F1 with far fewer
// labels than random selection. This bench measures exactly that on the
// live gateway: a weak similarity-only classifier plus a trained risk
// model (one-sided forest rules, analytic-gradient trainer) serve a DS
// workload; the review queue drains highest-risk-first while an oracle
// (the generator's ground truth) supplies labels; the corrected-F1 curve
// per label spent is recorded for the risk-ordered strategy and for a
// seeded-random baseline. A second section measures the continuous
// retrain-and-publish path: RetrainFromReview latency (train / publish /
// end-to-end) while resolver threads keep scoring traffic against the
// namespace that is being hot-republished. Prints a table and writes
// BENCH_review.json; tools/check_review_bench.sh validates the shape.
//
// Env knobs:
//   LEARNRISK_BENCH_SCALE    dataset scale                    (default 0.05)
//   LEARNRISK_BENCH_LABELS   label budget per strategy        (default 160)
//   LEARNRISK_BENCH_RETRAINS retrain-and-publish repetitions  (default 12)
//   LEARNRISK_SEED           master seed                      (default 7)

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "classifier/logistic.h"
#include "common/random.h"
#include "common/timer.h"
#include "data/generators.h"
#include "eval/classification_metrics.h"
#include "eval/experiment.h"
#include "gateway/gateway.h"
#include "risk/risk_feature.h"
#include "risk/trainer.h"

namespace {

using namespace learnrisk;  // NOLINT

using PairKey = std::pair<int64_t, int64_t>;

/// Ground truth + served machine labels for every scored pair, keyed so
/// drained review items can be matched back to their frontier slot.
struct Frontier {
  std::vector<uint8_t> truth;
  std::vector<uint8_t> machine;
  std::map<PairKey, size_t> index;
};

Frontier MakeFrontier(const ResolveResponse& response) {
  Frontier f;
  f.machine = response.scores.machine_label;
  f.truth.reserve(response.pairs.size());
  for (size_t i = 0; i < response.pairs.size(); ++i) {
    const RecordPair& pair = response.pairs[i];
    f.truth.push_back(pair.is_equivalent ? 1 : 0);
    f.index.emplace(PairKey(static_cast<int64_t>(pair.left),
                            static_cast<int64_t>(pair.right)),
                    i);
  }
  return f;
}

/// One (labels spent, corrected F1) point on a label-efficiency curve.
struct CurvePoint {
  size_t labels = 0;
  double f1 = 0.0;
};

/// Downsamples a dense curve to at most `max_points`, keeping the first and
/// last points so the labels axis stays strictly increasing end to end.
std::vector<CurvePoint> Thin(const std::vector<CurvePoint>& dense,
                             size_t max_points) {
  if (dense.size() <= max_points) return dense;
  std::vector<CurvePoint> out;
  const size_t stride = (dense.size() + max_points - 1) / max_points;
  for (size_t i = 0; i < dense.size(); i += stride) out.push_back(dense[i]);
  if (out.back().labels != dense.back().labels) out.push_back(dense.back());
  return out;
}

size_t LabelsToTarget(const std::vector<CurvePoint>& curve, double target) {
  for (const CurvePoint& point : curve) {
    if (point.f1 >= target) return point.labels;
  }
  return 0;  // never reached within the budget
}

void PrintCurve(const char* name, const std::vector<CurvePoint>& curve) {
  std::printf("  %-8s", name);
  for (const CurvePoint& point : Thin(curve, 8)) {
    std::printf(" %zu:%.3f", point.labels, point.f1);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  const double scale = bench::EnvDouble("LEARNRISK_BENCH_SCALE", 0.05);
  const size_t label_budget = bench::EnvSize("LEARNRISK_BENCH_LABELS", 160);
  const size_t num_retrains = bench::EnvSize("LEARNRISK_BENCH_RETRAINS", 12);
  const uint64_t seed = bench::Seed();
  bench::PrintBanner(
      "Review loop: label efficiency and retrain-and-publish latency",
      bench::Format("scale=%.2f, labels=%zu, retrains=%zu, seed=%llu", scale,
                    label_budget, num_retrains,
                    static_cast<unsigned long long>(seed)));

  // --- Workload + weak classifier + trained risk model (paper recipe). ----
  GeneratorOptions generator;
  generator.scale = scale;
  generator.seed = seed;
  Result<Workload> workload = GenerateDataset("DS", generator);
  if (!workload.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  MetricSuite suite = MetricSuite::ForSchema(workload->left().schema());
  suite.Fit(*workload);
  std::vector<size_t> classifier_columns;
  for (size_t c = 0; c < suite.specs().size(); ++c) {
    if (!IsDifferenceMetric(suite.specs()[c].kind)) {
      classifier_columns.push_back(c);
    }
  }
  const FeatureMatrix features = ComputeFeatures(*workload, suite);
  const FeatureMatrix classifier_view =
      GatherColumns(features, classifier_columns);
  LogisticOptions logistic;
  logistic.epochs = 10;  // weak on purpose: the reviewer needs mislabels
  logistic.seed = seed + 1;
  auto classifier = std::make_shared<LogisticClassifier>(logistic);
  if (!classifier->Train(classifier_view, workload->Labels()).ok()) {
    std::fprintf(stderr, "classifier training failed\n");
    return 1;
  }
  const std::vector<uint8_t>& truth = workload->Labels();
  const std::vector<double> probs = classifier->PredictProbaAll(classifier_view);
  Result<RiskFeatureSet> risk_features =
      GenerateRiskFeatures(features, truth, {});
  if (!risk_features.ok()) {
    std::fprintf(stderr, "rule generation failed: %s\n",
                 risk_features.status().ToString().c_str());
    return 1;
  }
  auto model = std::make_shared<RiskModel>(risk_features.MoveValueOrDie());
  RiskTrainerOptions trainer_options;
  trainer_options.epochs = 120;
  trainer_options.seed = seed + 2;
  if (!TrainRiskModel(model.get(), features, probs, truth, trainer_options)
           .ok()) {
    std::fprintf(stderr, "risk training failed\n");
    return 1;
  }

  auto make_gateway = [&]() {
    GatewayOptions options;
    options.review.enabled = true;
    options.review.per_request_budget = 1u << 20;  // offer the full frontier
    options.review.queue_capacity = 1u << 20;
    auto gateway = std::make_unique<Gateway>(options);
    NamespaceSpec spec;
    spec.left = workload->left_ptr();
    spec.right = workload->right_ptr();
    spec.suite = suite;
    spec.classifier = classifier;
    spec.classifier_columns = classifier_columns;
    if (!gateway->RegisterNamespace("ds", spec).ok() ||
        !gateway->Publish("ds", *model).ok()) {
      std::fprintf(stderr, "gateway setup failed\n");
      std::exit(1);
    }
    return gateway;
  };

  // --- Label efficiency: risk-ordered vs seeded random. -------------------
  auto risk_gateway = make_gateway();
  ResolveRequest block_all;
  block_all.block_all = true;
  const auto response = risk_gateway->Resolve("ds", block_all);
  if (!response.ok()) {
    std::fprintf(stderr, "resolve failed: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  const Frontier frontier = MakeFrontier(*response);
  const size_t num_pairs = frontier.truth.size();
  const size_t budget = std::min(label_budget, num_pairs);
  const double base_f1 = Confusion(frontier.machine, frontier.truth).F1();
  const double target_f1 = base_f1 + 0.5 * (1.0 - base_f1);

  // Risk-ordered: drain the live queue highest-risk-first; each oracle label
  // corrects that pair's served decision.
  std::vector<CurvePoint> risk_curve{{0, base_f1}};
  {
    std::vector<uint8_t> corrected = frontier.machine;
    for (size_t spent = 0; spent < budget; ++spent) {
      auto items = risk_gateway->DrainReview("ds", 1);
      if (!items.ok() || items->empty()) break;
      const ReviewItem& item = (*items)[0];
      const size_t idx = frontier.index.at(PairKey(item.left, item.right));
      if (!risk_gateway->SubmitReviewLabel("ds", item.left, item.right,
                                           frontier.truth[idx]).ok()) {
        std::fprintf(stderr, "label submit failed\n");
        return 1;
      }
      corrected[idx] = frontier.truth[idx];
      risk_curve.push_back(
          {spent + 1, Confusion(corrected, frontier.truth).F1()});
    }
  }

  // Random baseline: same oracle, same budget, uniform pair picks (offline —
  // selection ignores risk, so no queue is involved).
  std::vector<CurvePoint> random_curve{{0, base_f1}};
  {
    Rng rng(seed + 3);
    std::vector<uint8_t> corrected = frontier.machine;
    std::vector<size_t> pool(num_pairs);
    for (size_t i = 0; i < num_pairs; ++i) pool[i] = i;
    for (size_t spent = 0; spent < budget && !pool.empty(); ++spent) {
      const size_t pick = rng.Index(pool.size());
      const size_t idx = pool[pick];
      pool[pick] = pool.back();
      pool.pop_back();
      corrected[idx] = frontier.truth[idx];
      random_curve.push_back(
          {spent + 1, Confusion(corrected, frontier.truth).F1()});
    }
  }
  const size_t risk_to_target = LabelsToTarget(risk_curve, target_f1);
  const size_t random_to_target = LabelsToTarget(random_curve, target_f1);

  std::printf("workload: DS scale=%.2f, %zu scored pairs, base F1 %.3f, "
              "target F1 %.3f, budget %zu labels\n\n",
              scale, num_pairs, base_f1, target_f1, budget);
  std::printf("label efficiency (labels:F1, thinned):\n");
  PrintCurve("risk", risk_curve);
  PrintCurve("random", random_curve);
  auto print_to_target = [&](const char* name, size_t labels) {
    if (labels > 0) {
      std::printf("  %-8s reaches target in %zu labels\n", name, labels);
    } else {
      std::printf("  %-8s never reaches target within the budget\n", name);
    }
  };
  print_to_target("risk", risk_to_target);
  print_to_target("random", random_to_target);

  // --- Retrain-and-publish latency under concurrent resolves. -------------
  // A fresh gateway takes oracle labels off its own queue until the batch
  // holds both classes, then hot-republishes `num_retrains` times while two
  // resolver threads keep scoring explicit-pair batches; every resolve must
  // land on a complete (never torn) model version.
  auto retrain_gateway = make_gateway();
  size_t retrain_labels = 0;
  {
    const auto warm = retrain_gateway->Resolve("ds", block_all);
    if (!warm.ok()) return 1;
    const Frontier f = MakeFrontier(*warm);
    size_t mislabeled = 0;
    size_t correct = 0;
    while (mislabeled < 2 || correct < 2) {
      auto items = retrain_gateway->DrainReview("ds", 1);
      if (!items.ok() || items->empty()) break;
      const ReviewItem& item = (*items)[0];
      const size_t idx = f.index.at(PairKey(item.left, item.right));
      if (!retrain_gateway->SubmitReviewLabel("ds", item.left, item.right,
                                              f.truth[idx]).ok()) {
        return 1;
      }
      (f.machine[idx] != f.truth[idx] ? mislabeled : correct) += 1;
      ++retrain_labels;
    }
  }
  std::vector<double> train_ms;
  std::vector<double> publish_ms;
  std::vector<double> end_to_end_ms;
  std::atomic<size_t> resolves_during{0};
  std::atomic<bool> stop_resolvers{false};
  uint64_t last_version = 0;
  {
    ResolveRequest fixed_batch;
    const size_t batch = std::min<size_t>(64, response->pairs.size());
    fixed_batch.pairs.assign(response->pairs.begin(),
                             response->pairs.begin() +
                                 static_cast<ptrdiff_t>(batch));
    std::vector<std::thread> resolvers;
    for (int t = 0; t < 2; ++t) {
      resolvers.emplace_back([&] {
        while (!stop_resolvers.load(std::memory_order_acquire)) {
          if (!retrain_gateway->Resolve("ds", fixed_batch).ok()) std::exit(1);
          resolves_during.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (size_t i = 0; i < num_retrains; ++i) {
      ReviewRetrainOptions options;
      Timer timer;
      const auto result = retrain_gateway->RetrainFromReview("ds", options);
      const double total = timer.ElapsedMillis();
      if (!result.ok()) {
        std::fprintf(stderr, "retrain failed: %s\n",
                     result.status().ToString().c_str());
        std::exit(1);
      }
      train_ms.push_back(result->train_ms);
      publish_ms.push_back(result->publish_ms);
      end_to_end_ms.push_back(total);
      last_version = result->model_version;
    }
    stop_resolvers.store(true, std::memory_order_release);
    for (std::thread& t : resolvers) t.join();
  }
  std::printf("\nretrain-and-publish (%zu retrains on %zu labels, 2 resolver "
              "threads, %zu resolves during):\n",
              num_retrains, retrain_labels, resolves_during.load());
  std::printf("  %-12s p50 %8.3f ms  p99 %8.3f ms\n", "train",
              bench::Percentile(train_ms, 0.5),
              bench::Percentile(train_ms, 0.99));
  std::printf("  %-12s p50 %8.3f ms  p99 %8.3f ms\n", "publish",
              bench::Percentile(publish_ms, 0.5),
              bench::Percentile(publish_ms, 0.99));
  std::printf("  %-12s p50 %8.3f ms  p99 %8.3f ms (final version %llu)\n",
              "end-to-end", bench::Percentile(end_to_end_ms, 0.5),
              bench::Percentile(end_to_end_ms, 0.99),
              static_cast<unsigned long long>(last_version));

  // --- BENCH_review.json (tools/check_review_bench.sh validates). ---------
  FILE* json = std::fopen("BENCH_review.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"scale\": %.3f,\n"
                 "  \"scored_pairs\": %zu,\n"
                 "  \"label_budget\": %zu,\n"
                 "  \"base_f1\": %.6f,\n"
                 "  \"target_f1\": %.6f,\n"
                 "  \"label_efficiency\": {\n",
                 scale, num_pairs, budget, base_f1, target_f1);
    auto dump_curve = [&](const char* name,
                          const std::vector<CurvePoint>& curve, bool comma) {
      std::fprintf(json, "    \"%s\": [", name);
      const std::vector<CurvePoint> thin = Thin(curve, 40);
      for (size_t i = 0; i < thin.size(); ++i) {
        std::fprintf(json, "%s\n      {\"labels\": %zu, \"f1\": %.6f}",
                     i == 0 ? "" : ",", thin[i].labels, thin[i].f1);
      }
      std::fprintf(json, "\n    ]%s\n", comma ? "," : "");
    };
    dump_curve("risk", risk_curve, true);
    dump_curve("random", random_curve, true);
    std::fprintf(json,
                 "    \"labels_to_target_risk\": %zu,\n"
                 "    \"labels_to_target_random\": %zu\n"
                 "  },\n",
                 risk_to_target, random_to_target);
    std::fprintf(json,
                 "  \"retrain_publish\": {\n"
                 "    \"retrains\": %zu,\n"
                 "    \"labels\": %zu,\n"
                 "    \"resolves_during\": %zu,\n"
                 "    \"final_model_version\": %llu,\n"
                 "    \"train_ms_p50\": %.4f,\n"
                 "    \"train_ms_p99\": %.4f,\n"
                 "    \"publish_ms_p50\": %.4f,\n"
                 "    \"publish_ms_p99\": %.4f,\n"
                 "    \"end_to_end_ms_p50\": %.4f,\n"
                 "    \"end_to_end_ms_p99\": %.4f\n"
                 "  }\n}\n",
                 num_retrains, retrain_labels, resolves_during.load(),
                 static_cast<unsigned long long>(last_version),
                 bench::Percentile(train_ms, 0.5),
                 bench::Percentile(train_ms, 0.99),
                 bench::Percentile(publish_ms, 0.5),
                 bench::Percentile(publish_ms, 0.99),
                 bench::Percentile(end_to_end_ms, 0.5),
                 bench::Percentile(end_to_end_ms, 0.99));
    std::fclose(json);
    std::printf("\n  wrote BENCH_review.json\n");
  }
  return 0;
}
