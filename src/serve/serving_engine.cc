// Copyright 2026 The LearnRisk Authors

#include "serve/serving_engine.h"

#include "risk/model_io.h"

namespace learnrisk {

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
  for (size_t i = 0; i < n; ++i) {
    // The negated comparison also rejects NaN, which would otherwise flow
    // through the scoring kernel and come back as NaN risk scores.
    const double p = request.classifier_probs[i];
    if (!(p >= 0.0 && p <= 1.0)) {
      return Status::InvalidArgument(
          "classifier_probs[" + std::to_string(i) +
          "] is not a finite probability in [0, 1]");
    }
  }

  const ScorerSnapshot& snap = published->snapshot;
  if (request.metric_features->cols() <
      snap.compiled().min_feature_columns()) {
    return Status::InvalidArgument(
        "metric_features has fewer columns than the model's rules read");
  }
  const CsrActivation activation =
      snap.compiled().EvaluateCsr(*request.metric_features);

  ScoreResponse response;
  response.model_version = published->version;
  response.risk.resize(n);
  response.machine_label.resize(n);
  const RiskModel& model = snap.model();
  model.ScoreBatch(activation, request.classifier_probs, response.risk.data(),
                   response.machine_label.data());
  if (request.explain_top_k > 0) {
    response.explanations.resize(n);
    for (size_t i = 0; i < n; ++i) {
      response.explanations[i] =
          model.Explain(activation.row(i), activation.row_size(i),
                        request.classifier_probs[i], request.explain_top_k);
    }
  }
  if (metrics_.score_batches != nullptr) metrics_.score_batches->Add(1);
  if (metrics_.scored_pairs != nullptr) metrics_.scored_pairs->Add(n);
  if (scorer != nullptr) *scorer = {published, &snap};
  return response;
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
