// Copyright 2026 The LearnRisk Authors
// Frozen, immutable pair of a published RiskModel and its drift baseline —
// the second layer of the serving subsystem. The model is itself the scoring
// kernel (it bakes its parameter transforms whenever they change, see
// risk/risk_model.h), so serving scores through snapshot.model() with the
// same code, and the same bits, as the offline experiments. ScoreRows is
// the one serving loop over metric rows: ServingEngine::Score runs it over
// the chunks of a whole matrix, the gateway over each tile of its fused
// request pass.

#ifndef LEARNRISK_SERVE_SCORER_SNAPSHOT_H_
#define LEARNRISK_SERVE_SCORER_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "risk/risk_model.h"
#include "serve/compiled_rules.h"

namespace learnrisk {

class DriftBaseline;  // obs/drift.h

/// \brief Per-thread buffers ScorerSnapshot::ScoreRows reuses across calls
/// (sized on first use), so a chunk scoring tile after tile allocates once.
struct ScoreScratch {
  std::vector<uint64_t> failed;  ///< one failed-rule bitset
  std::vector<uint32_t> active;  ///< one row's active rules
};

/// \brief An immutable view of a published model. Safe to share across
/// threads without synchronization: nothing mutates after construction.
class ScorerSnapshot {
 public:
  /// \brief Freezes `model`, optionally together with the training-time
  /// feature/risk distributions it was fitted on (see obs/drift.h) — the
  /// reference the gateway's drift gauges compare live traffic against.
  /// The baseline is carried, not persisted: model_io round-trips drop it.
  explicit ScorerSnapshot(
      RiskModel model,
      std::shared_ptr<const DriftBaseline> drift_baseline = nullptr)
      : model_(std::move(model)), drift_baseline_(std::move(drift_baseline)) {}

  /// \brief The published model: scoring, explanations and persistence.
  const RiskModel& model() const { return model_; }

  /// \brief Training-time distributions frozen at publish; nullptr when the
  /// model was published (or reloaded from disk) without one.
  const std::shared_ptr<const DriftBaseline>& drift_baseline() const {
    return drift_baseline_;
  }
  /// \brief The compiled activation plan (shared with the model's features).
  const CompiledRuleSet& compiled() const { return model_.features().compiled(); }

  /// \brief Scores `rows` consecutive row-major metric rows, `cols` values
  /// each (cols >= compiled().min_feature_columns()), with their classifier
  /// probabilities (each finite, in [0, 1]): risk[i], label[i] =
  /// probs[i] >= 0.5 and, when explain_top_k > 0, explanations[i] = the
  /// top-k contributions. Each row's active rules are evaluated once into
  /// `scratch` — no CSR activation is materialized — and scored with the
  /// model's RiskScore and Explain, the kernel offline scoring runs too.
  /// Serial; callers parallelize over disjoint row ranges.
  void ScoreRows(const double* features, size_t cols, const double* probs,
                 size_t rows, size_t explain_top_k, ScoreScratch* scratch,
                 double* risk, uint8_t* label,
                 std::vector<RiskContribution>* explanations) const;

 private:
  RiskModel model_;
  std::shared_ptr<const DriftBaseline> drift_baseline_;
};

}  // namespace learnrisk

#endif  // LEARNRISK_SERVE_SCORER_SNAPSHOT_H_
