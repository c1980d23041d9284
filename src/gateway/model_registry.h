// Copyright 2026 The LearnRisk Authors
// Multi-tenant model registry — the top layer of the request gateway's
// serving side. Maps namespace strings (one per dataset / workload) to
// independent ServingEngines, so each tenant hot-swaps its model without
// touching the others. Every published model stays resident; the registry
// writes no files. A namespace's model is persisted by the gateway's
// durable checkpoint (docs/DURABILITY.md), which rides on shard 0's log.

#ifndef LEARNRISK_GATEWAY_MODEL_REGISTRY_H_
#define LEARNRISK_GATEWAY_MODEL_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "serve/serving_engine.h"

namespace learnrisk {

/// \brief Telemetry hooks for the registry (optional): the publish counter
/// behind learnrisk_registry_publishes_total. The namespace count is a
/// snapshot-time gauge callback over Namespaces(). Instruments are owned by
/// a MetricRegistry; a null pointer disables recording. Set before the
/// registry is shared across threads (see ModelRegistry::set_metrics).
struct ModelRegistryMetrics {
  ShardedCounter* publishes = nullptr;  ///< successful Publish calls
};

/// \brief Thread-safe namespace -> ServingEngine map.
///
/// All methods are safe to call concurrently. The registry lock only guards
/// the map; the expensive snapshot build inside ServingEngine::Publish runs
/// outside it, so scoring traffic on other namespaces (and on the same
/// namespace, against the previous snapshot) is never blocked by a publish.
/// A namespace's engine, once created, is never replaced: concurrent
/// publishes funnel into it, and its forward-only counter keeps versions
/// unique and increasing.
class ModelRegistry {
 public:
  /// \brief True for names the registry accepts: 1-128 chars drawn from
  /// [A-Za-z0-9_.-], starting with an alphanumeric (names double as durable
  /// directory names, so path separators and dot-prefixes are rejected).
  static bool ValidNamespace(const std::string& ns);

  /// \brief Publishes a model under the namespace (creating it on first
  /// use) and returns the namespace's new version. Versions are
  /// per-namespace, unique and increasing. The snapshot build runs outside
  /// the registry lock. `drift_baseline` rides the new ScorerSnapshot (see
  /// ServingEngine::Publish).
  Result<uint64_t> Publish(const std::string& ns, RiskModel model,
                           std::shared_ptr<const DriftBaseline>
                               drift_baseline = nullptr);

  /// \brief The namespace's engine. NotFound for namespaces never
  /// published.
  Result<std::shared_ptr<ServingEngine>> Engine(const std::string& ns);

  bool Contains(const std::string& ns) const;

  /// \brief All namespaces, sorted.
  std::vector<std::string> Namespaces() const;

  /// \brief Raises the namespace's version floor: the first Publish that
  /// creates its engine returns a version strictly greater than `version`.
  /// Idempotent; never lowers an existing floor, and an existing engine
  /// keeps its own forward-only counter. Used by durable-namespace recovery
  /// to re-publish a checkpointed model under the exact version the
  /// manifest recorded.
  void EnsureVersionAtLeast(const std::string& ns, uint64_t version);

  /// \brief Installs telemetry hooks: the publish counter for this registry
  /// plus the engine-level hooks copied onto every ServingEngine the
  /// registry creates from now on. Call before the registry is shared
  /// across threads — the Gateway wires this in its constructor.
  void set_metrics(const ModelRegistryMetrics& metrics,
                   const ServingEngineMetrics& engine_metrics) {
    metrics_ = metrics;
    engine_metrics_ = engine_metrics;
  }

 private:
  struct Entry {
    std::shared_ptr<ServingEngine> engine;  ///< null until the first Publish
    uint64_t version_floor = 0;  ///< the engine's first version is above it
  };

  /// Null pointers = no instrumentation; written once before concurrent use.
  ModelRegistryMetrics metrics_;
  /// Copied onto every ServingEngine this registry creates.
  ServingEngineMetrics engine_metrics_;
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace learnrisk

#endif  // LEARNRISK_GATEWAY_MODEL_REGISTRY_H_
