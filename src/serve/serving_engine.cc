// Copyright 2026 The LearnRisk Authors

#include "serve/serving_engine.h"

#include "common/parallel.h"
#include "risk/model_io.h"

namespace learnrisk {

size_t FirstInvalidProbability(const double* probs, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    // The negated comparison also rejects NaN.
    if (!(probs[i] >= 0.0 && probs[i] <= 1.0)) return i;
  }
  return n;
}

Status InvalidProbability(size_t row) {
  return Status::InvalidArgument("classifier_probs[" + std::to_string(row) +
                                 "] is not a finite probability in [0, 1]");
}

uint64_t ServingEngine::Publish(
    RiskModel model, std::shared_ptr<const DriftBaseline> drift_baseline) {
  const uint64_t version =
      next_version_.fetch_add(1, std::memory_order_relaxed);
  auto published = std::make_shared<const Published>(version, std::move(model),
                                                     std::move(drift_baseline));
  // Swap forward only: if a concurrent Publish drew a later version and its
  // store landed first, installing ours would regress the served version.
  auto expected = Load();
  while (expected == nullptr || expected->version < version) {
    if (std::atomic_compare_exchange_weak_explicit(
            &published_, &expected,
            std::shared_ptr<const Published>(published),
            std::memory_order_release, std::memory_order_acquire)) {
      break;
    }
  }
  if (metrics_.publishes != nullptr) metrics_.publishes->Add(1);
  return version;
}

uint64_t ServingEngine::version() const {
  const auto published = Load();
  return published == nullptr ? 0 : published->version;
}

std::pair<uint64_t, std::shared_ptr<const ScorerSnapshot>>
ServingEngine::VersionedSnapshot() const {
  const auto published = Load();
  if (published == nullptr) return {0, nullptr};
  // Aliasing constructor: the returned pointer shares ownership of the whole
  // Published record, keeping version and snapshot alive together.
  return {published->version,
          std::shared_ptr<const ScorerSnapshot>(published,
                                                &published->snapshot)};
}

Result<ScoreResponse> ServingEngine::Score(
    const ScoreRequest& request,
    std::shared_ptr<const ScorerSnapshot>* scorer) const {
  TraceSpan span(metrics_.score_ns);
  const auto published = Load();
  if (published == nullptr) {
    return Status::FailedPrecondition("no model published to the engine");
  }
  if (request.metric_features == nullptr) {
    return Status::InvalidArgument("ScoreRequest.metric_features is null");
  }
  const size_t n = request.metric_features->rows();
  if (request.classifier_probs.size() != n) {
    return Status::InvalidArgument(
        "classifier_probs size does not match metric_features rows");
  }
  const size_t invalid =
      FirstInvalidProbability(request.classifier_probs.data(), n);
  if (invalid < n) return InvalidProbability(invalid);

  const ScorerSnapshot& snap = published->snapshot;
  const FeatureMatrix& features = *request.metric_features;
  if (features.cols() < snap.compiled().min_feature_columns()) {
    return Status::InvalidArgument(
        "metric_features has fewer columns than the model's rules read");
  }

  ScoreResponse response;
  response.model_version = published->version;
  response.risk.resize(n);
  response.machine_label.resize(n);
  const bool explain = request.explain_top_k > 0;
  if (explain) response.explanations.resize(n);
  ParallelForRange(n, [&](size_t begin, size_t end) {
    ScoreScratch scratch;
    snap.ScoreRows(features.row(begin), features.cols(),
                   request.classifier_probs.data() + begin, end - begin,
                   request.explain_top_k, &scratch,
                   response.risk.data() + begin,
                   response.machine_label.data() + begin,
                   explain ? response.explanations.data() + begin : nullptr);
  });
  if (metrics_.score_batches != nullptr) metrics_.score_batches->Add(1);
  if (metrics_.scored_pairs != nullptr) metrics_.scored_pairs->Add(n);
  if (scorer != nullptr) *scorer = {published, &snap};
  return response;
}

void ServingEngine::RecordScored(size_t pairs, uint64_t score_ns) const {
  if (metrics_.score_ns != nullptr) metrics_.score_ns->Record(score_ns);
  if (metrics_.score_batches != nullptr) metrics_.score_batches->Add(1);
  if (metrics_.scored_pairs != nullptr) metrics_.scored_pairs->Add(pairs);
}

Status ServingEngine::SaveCurrent(const std::string& path) const {
  const auto published = Load();
  if (published == nullptr) {
    return Status::FailedPrecondition("no model published to the engine");
  }
  return SaveRiskModel(published->snapshot.model(), path);
}

Result<uint64_t> ServingEngine::LoadAndPublish(const std::string& path) {
  Result<RiskModel> model = LoadRiskModel(path);
  if (!model.ok()) return model.status();
  return Publish(model.MoveValueOrDie());
}

}  // namespace learnrisk
