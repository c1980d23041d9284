// Copyright 2026 The LearnRisk Authors
// Multi-tenant model registry — the top layer of the request gateway's
// serving side. Maps namespace strings (one per dataset / workload) to
// independent ServingEngines, so each tenant hot-swaps its model without
// touching the others. Supports an LRU-style cap on resident snapshots
// (least-recently-used engines spill their model to disk via model_io and
// reload lazily on next access, with version numbers staying monotonic
// across the round trip). Spill is a memory cap, not persistence: a
// namespace's model is persisted by the gateway's durable checkpoint
// (docs/DURABILITY.md), which rides on shard 0's log.

#ifndef LEARNRISK_GATEWAY_MODEL_REGISTRY_H_
#define LEARNRISK_GATEWAY_MODEL_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "serve/serving_engine.h"

namespace learnrisk {

/// \brief Telemetry hooks for the registry's LRU machinery (all optional) —
/// the counters behind the "LRU stats" in Gateway::MetricsSnapshot(); the
/// resident/namespace counts are exposed as snapshot-time gauge callbacks
/// over resident_count() / Namespaces(). Instruments are owned by a
/// MetricRegistry; null pointers disable recording. Set before the registry
/// is shared across threads (see ModelRegistry::set_metrics).
struct ModelRegistryMetrics {
  ShardedCounter* publishes = nullptr;       ///< successful Publish calls
  ShardedCounter* engine_hits = nullptr;     ///< Engine() found it resident
  ShardedCounter* engine_reloads = nullptr;  ///< spilled snapshot reloaded
  ShardedCounter* spills = nullptr;          ///< eviction model files written
  ShardedCounter* evictions = nullptr;       ///< engines actually dropped
  /// Eviction rounds that left the registry over cap because every victim
  /// candidate was pinned by an in-flight publish.
  ShardedCounter* pinned_engine_waits = nullptr;
};

/// \brief Registry configuration.
struct ModelRegistryOptions {
  /// Maximum number of namespaces with a resident (in-memory) snapshot;
  /// 0 = unlimited. Requires `spill_dir` when > 0.
  size_t max_resident = 0;
  /// Directory where evicted snapshots are persisted (created on demand).
  std::string spill_dir;
  /// Test hook: invoked with the namespace being spilled, after the
  /// registry lock is released and before its model is written to disk.
  /// Tests inject latency here to verify spill IO never blocks the
  /// registry (see tests/registry_spill_test.cc). Null in production.
  std::function<void(const std::string&)> spill_io_hook;
};

/// \brief Thread-safe namespace -> ServingEngine map with LRU spill.
///
/// All methods are safe to call concurrently. The registry lock only guards
/// the map and LRU bookkeeping; the expensive snapshot build inside
/// ServingEngine::Publish runs outside it, so scoring traffic on other
/// namespaces (and on the same namespace, against the previous snapshot) is
/// never blocked by a publish.
///
/// Eviction / pinning semantics (with `max_resident` > 0):
///  - Eviction is LRU over a monotone touch clock: every Publish / Engine
///    access stamps the entry, and exceeding the cap spills the
///    least-recently-used *other* entries' models to `spill_dir` via
///    model_io, dropping their engines.
///  - In-flight publishes pin their engine: an entry whose `publishing`
///    count is nonzero is skipped by eviction, because spilling mid-publish
///    would fork a second engine for the namespace, orphaning the in-flight
///    model and duplicating version numbers.
///  - Callers holding a shared_ptr<ServingEngine> from Engine() are
///    implicitly pinned too: eviction only drops the registry's reference,
///    so a handed-out engine stays alive and scoreable; the registry simply
///    reloads a fresh engine (with a resumed version counter) on the
///    namespace's next access.
///  - Spill IO runs *outside* the registry lock, in two phases: victims are
///    planned (and flagged `spilling`, pinning them against a second
///    concurrent spill) under the lock, their models are written with the
///    lock released, and each spill is finalized under the lock again — the
///    engine is dropped only if its version still matches the one that was
///    saved, so a publish that lands mid-spill keeps the namespace resident
///    instead of being silently replaced by a stale file. A slow disk
///    therefore never delays Publish / Engine / Score on other namespaces
///    (tests/registry_spill_test.cc). Cap enforcement is also best-effort
///    on the serving path: a Publish or Engine call whose own work
///    succeeded never fails because some namespace could not be written to
///    disk — the registry stays over cap and retries on the next access.
class ModelRegistry {
 public:
  explicit ModelRegistry(ModelRegistryOptions options = {});

  /// \brief True for names the registry accepts: 1-128 chars drawn from
  /// [A-Za-z0-9_.-], starting with an alphanumeric (names double as spill
  /// file names, so path separators and dot-prefixes are rejected).
  static bool ValidNamespace(const std::string& ns);

  /// \brief Publishes a model under the namespace (creating it on first
  /// use) and returns the namespace's new version. Versions are
  /// per-namespace, unique and increasing — including across spill/reload.
  /// The snapshot build runs outside the registry lock with the target
  /// engine pinned against eviction for the duration. `drift_baseline`
  /// rides the new ScorerSnapshot (see ServingEngine::Publish); spill files
  /// do not carry it, so a spilled-and-reloaded namespace serves without
  /// one until the next Publish.
  Result<uint64_t> Publish(const std::string& ns, RiskModel model,
                           std::shared_ptr<const DriftBaseline>
                               drift_baseline = nullptr);

  /// \brief The namespace's engine, reloading a spilled snapshot if needed.
  /// NotFound for namespaces never published. The returned pointer stays
  /// valid (and scoreable) even if the registry later evicts the namespace.
  Result<std::shared_ptr<ServingEngine>> Engine(const std::string& ns);

  bool Contains(const std::string& ns) const;

  /// \brief All namespaces, sorted.
  std::vector<std::string> Namespaces() const;

  /// \brief Namespaces whose snapshot is currently in memory.
  size_t resident_count() const;

  /// \brief Raises the namespace's version floor: the next Publish returns a
  /// version strictly greater than `version`. Idempotent; never lowers an
  /// existing floor. Used by durable-namespace recovery to re-publish a
  /// checkpointed model under the exact version the manifest recorded.
  void EnsureVersionAtLeast(const std::string& ns, uint64_t version);

  /// \brief Installs telemetry hooks: LRU counters for this registry plus
  /// the engine-level hooks copied onto every ServingEngine the registry
  /// creates from now on (publish-created and spill-reloaded alike). Call
  /// before the registry is shared across threads — the Gateway wires this
  /// in its constructor.
  void set_metrics(const ModelRegistryMetrics& metrics,
                   const ServingEngineMetrics& engine_metrics) {
    metrics_ = metrics;
    engine_metrics_ = engine_metrics;
  }

 private:
  struct Entry {
    std::shared_ptr<ServingEngine> engine;  ///< null while spilled
    uint64_t last_version = 0;  ///< highest version ever published
    uint64_t touched = 0;       ///< LRU clock value of the last access
    /// Publishes currently in flight against `engine`. Eviction skips such
    /// entries: spilling mid-publish would fork a second engine for the
    /// namespace, orphaning the in-flight model and duplicating versions.
    size_t publishing = 0;
    /// True while this entry's model is being written to disk outside the
    /// lock; planning skips flagged entries so one victim is never spilled
    /// twice concurrently.
    bool spilling = false;
  };

  /// \brief One planned eviction: the engine to persist and the version
  /// the plan observed (re-validated at finalization).
  struct SpillJob {
    std::string ns;
    std::shared_ptr<ServingEngine> engine;
    uint64_t version = 0;
  };

  std::string SpillPath(const std::string& ns) const;
  /// \brief Ensures the entry's engine exists (spilled namespaces reload
  /// from disk); returns it. Caller holds mu_.
  Result<std::shared_ptr<ServingEngine>> ResidentEngineLocked(
      const std::string& ns, Entry* entry);
  /// \brief Picks least-recently-used unpinned resident engines until the
  /// cap holds, marking them `spilling`. Caller holds mu_.
  std::vector<SpillJob> PlanEvictionsLocked();
  /// \brief Plans evictions under the lock and runs the spill IO outside
  /// it, looping until the cap holds or no victim is eligible. Caller must
  /// NOT hold mu_.
  Status SpillOverCap();

  ModelRegistryOptions options_;
  /// Null pointers = no instrumentation; written once before concurrent use.
  ModelRegistryMetrics metrics_;
  /// Copied onto every ServingEngine this registry creates.
  ServingEngineMetrics engine_metrics_;
  mutable std::mutex mu_;
  uint64_t clock_ = 0;
  std::map<std::string, Entry> entries_;
};

}  // namespace learnrisk

#endif  // LEARNRISK_GATEWAY_MODEL_REGISTRY_H_
