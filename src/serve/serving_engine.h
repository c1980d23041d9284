// Copyright 2026 The LearnRisk Authors
// Hot-swappable risk-scoring engine — the top layer of the serving subsystem.
// Scores through the published model itself (RiskModel is the one scoring
// kernel, offline and online). Holds the current ScorerSnapshot behind an
// atomically-swapped shared_ptr: Score() loads the pointer once and works
// off that frozen snapshot for the whole batch, while Publish() builds a new
// snapshot off to the side and swaps it in with release semantics. Readers
// therefore never see a half-updated model (no torn reads) and never block
// on a publish; requests in flight finish on the snapshot they started with,
// which stays alive via shared ownership until the last reader drops it
// (zero-downtime updates, e.g. after a retraining cycle in a human-machine
// loop).

#ifndef LEARNRISK_SERVE_SERVING_ENGINE_H_
#define LEARNRISK_SERVE_SERVING_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "serve/scorer_snapshot.h"

namespace learnrisk {

/// \brief Telemetry hooks for one engine (all optional; see
/// docs/OBSERVABILITY.md). Instruments are owned by a MetricRegistry; the
/// engine only records through the pointers, so a default-constructed
/// (all-null) struct disables instrumentation with a single branch per
/// event. Set before the engine is shared across threads.
struct ServingEngineMetrics {
  ShardedCounter* publishes = nullptr;      ///< snapshot swaps installed
  ShardedCounter* score_batches = nullptr;  ///< successful Score calls
  ShardedCounter* scored_pairs = nullptr;   ///< rows across those batches
  LatencyHistogram* score_ns = nullptr;     ///< per-batch Score latency
};

/// \brief One scoring batch: metric features plus classifier outputs for the
/// same pairs, and optionally a request for top-k explanations per pair.
struct ScoreRequest {
  /// Per-pair basic-metric rows (the rule evaluation input). Must stay alive
  /// for the duration of the Score call. Required.
  const FeatureMatrix* metric_features = nullptr;
  /// Per-pair classifier equivalence probabilities; size must equal
  /// metric_features->rows().
  std::vector<double> classifier_probs;
  /// When > 0, ScoreResponse::explanations carries the top-k
  /// RiskContribution entries per pair.
  size_t explain_top_k = 0;
};

/// \brief Scores plus the version of the model that produced them.
struct ScoreResponse {
  /// Monotonically increasing id of the snapshot used (Publish order). All
  /// values in one response come from the same snapshot.
  uint64_t model_version = 0;
  std::vector<double> risk;           ///< mislabeling risk per pair
  std::vector<uint8_t> machine_label; ///< classifier_prob >= 0.5
  /// Per-pair top-k contributions; empty unless explain_top_k > 0.
  std::vector<std::vector<RiskContribution>> explanations;
};

/// \brief Index of the first of probs[0, n) that is not a finite
/// probability in [0, 1] (NaN included); n when every value is valid. A
/// NaN would otherwise flow through the scoring kernel and come back as a
/// NaN risk score.
size_t FirstInvalidProbability(const double* probs, size_t n);

/// \brief The InvalidArgument a scoring request fails with when
/// classifier_probs[row] is not a finite probability.
Status InvalidProbability(size_t row);

/// \brief Thread-safe registry of the current scoring snapshot.
///
/// All methods are safe to call concurrently. Score is wait-free with
/// respect to Publish (one atomic shared_ptr load); concurrent Publish calls
/// may interleave, but the engine only ever swaps forward — the snapshot
/// with the highest version stays installed, so the served version never
/// regresses and versions stay unique and increasing.
class ServingEngine {
 public:
  ServingEngine() = default;

  /// \brief Engine whose first published snapshot gets version
  /// `first_version` (>= 1; 0 is treated as 1). Lets durable-namespace
  /// recovery re-publish a checkpointed model under the version its
  /// manifest recorded (ModelRegistry::EnsureVersionAtLeast).
  explicit ServingEngine(uint64_t first_version)
      : next_version_(first_version == 0 ? 1 : first_version) {}

  /// \brief Freezes the model into a snapshot and swaps it in as the current
  /// scorer. Returns the new snapshot's version. Never blocks readers: the
  /// (comparatively expensive) snapshot build happens before the swap.
  /// `drift_baseline`, when given, rides the snapshot as the training-time
  /// reference the gateway's drift gauges compare live traffic against
  /// (obs/drift.h); it is not persisted, so SaveCurrent/LoadAndPublish
  /// round-trips drop it.
  uint64_t Publish(RiskModel model,
                   std::shared_ptr<const DriftBaseline> drift_baseline =
                       nullptr);

  /// \brief True once a model has been published.
  bool has_model() const { return Load() != nullptr; }

  /// \brief Version of the current snapshot (0 if none published yet).
  uint64_t version() const;

  /// \brief The current snapshot together with its version, read from one
  /// atomic load, so the pair is consistent under concurrent Publish.
  /// {0, nullptr} before the first Publish. The returned pointer keeps the
  /// snapshot alive independently of later swaps. Checkpointing uses this
  /// to persist a model file whose contents match the recorded version.
  std::pair<uint64_t, std::shared_ptr<const ScorerSnapshot>> VersionedSnapshot()
      const;

  /// \brief Scores a batch against the current snapshot: the snapshot's
  /// ScoreRows (compiled rule activation, the model's risk kernel and
  /// optional top-k Explain) over chunk-parallel row ranges of the matrix.
  /// Fails with FailedPrecondition before the first Publish and
  /// InvalidArgument on malformed requests. `scorer` (optional) receives the
  /// exact snapshot that produced the response (version
  /// ScoreResponse::model_version), even if a publish lands mid-call.
  Result<ScoreResponse> Score(
      const ScoreRequest& request,
      std::shared_ptr<const ScorerSnapshot>* scorer = nullptr) const;

  /// \brief Counts one batch of `pairs` rows that a caller scored itself
  /// through ScorerSnapshot::ScoreRows against a snapshot this engine
  /// published (VersionedSnapshot), taking `score_ns` of scoring time, into
  /// the instruments Score() feeds. The gateway's tiled request pass scores
  /// tile by tile against one pinned snapshot and reports here once per
  /// request.
  void RecordScored(size_t pairs, uint64_t score_ns) const;

  /// \brief Persists the current snapshot's model via model_io (text format;
  /// survives a save/load roundtrip bit-exactly).
  Status SaveCurrent(const std::string& path) const;

  /// \brief Loads a model_io file and publishes it; returns the new version.
  Result<uint64_t> LoadAndPublish(const std::string& path);

  /// \brief Installs telemetry hooks (copied by value). Call before the
  /// engine is shared across threads — typically right after construction,
  /// as ModelRegistry does; the registry wires every engine it creates.
  void set_metrics(const ServingEngineMetrics& metrics) { metrics_ = metrics; }

 private:
  struct Published {
    uint64_t version;
    ScorerSnapshot snapshot;
    Published(uint64_t v, RiskModel m,
              std::shared_ptr<const DriftBaseline> baseline)
        : version(v), snapshot(std::move(m), std::move(baseline)) {}
  };

  std::shared_ptr<const Published> Load() const {
    return std::atomic_load_explicit(&published_, std::memory_order_acquire);
  }

  // Swapped via std::atomic_load/store (C++17's shared_ptr atomic access);
  // never mutated in place.
  std::shared_ptr<const Published> published_;
  std::atomic<uint64_t> next_version_{1};
  /// Null pointers = no instrumentation; written once before concurrent use.
  ServingEngineMetrics metrics_;
};

}  // namespace learnrisk

#endif  // LEARNRISK_SERVE_SERVING_ENGINE_H_
