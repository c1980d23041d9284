// Copyright 2026 The LearnRisk Authors
// Raw-record request gateway: the first end-to-end entry point of the
// serving stack. A namespace bundles a workload's tables, an incremental
// BlockingIndex, and a FeaturePipeline (fitted metric suite + frozen
// classifier); the embedded ModelRegistry maps the same namespace to its
// ServingEngine. Resolve then runs blocking -> metrics -> classifier -> risk
// in one call, turning two raw tables into risk-ranked candidate pairs —
// with per-stage wall-clock timing for observability — and every stage is
// bit-identical to running the offline TokenBlocking + MetricSuite +
// ServingEngine path by hand.

#ifndef LEARNRISK_GATEWAY_GATEWAY_H_
#define LEARNRISK_GATEWAY_GATEWAY_H_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "active/incremental_retrain.h"
#include "classifier/classifier.h"
#include "common/status.h"
#include "data/blocking.h"
#include "data/table.h"
#include "data/workload.h"
#include "gateway/blocking_index.h"
#include "gateway/durability.h"
#include "gateway/feature_pipeline.h"
#include "gateway/model_registry.h"
#include "gateway/namespace_segments.h"
#include "gateway/shard_merge.h"
#include "metrics/metric_suite.h"
#include "obs/drift.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/trace_buffer.h"
#include "review/review_queue.h"

namespace learnrisk {

/// \brief Everything a namespace needs to serve raw pairs: its tables, the
/// fitted metric suite, the frozen classifier, and the blocking parameters.
struct NamespaceSpec {
  std::shared_ptr<const Table> left;
  /// Null or equal to `left` selects dedup (single-table) semantics.
  std::shared_ptr<const Table> right;
  /// Must already be fitted (Fit on the namespace's workload).
  MetricSuite suite;
  std::shared_ptr<const BinaryClassifier> classifier;
  /// Metric columns the classifier was trained on (empty = all).
  std::vector<size_t> classifier_columns;
  BlockingConfig blocking;
  /// Independent shards for this namespace (0 and 1 both mean unsharded).
  /// Sharding trades nothing for scale: writers serialize per-shard instead
  /// of per-namespace and results stay bit-identical to `shards = 1` at any
  /// value (docs/CONCURRENCY.md "Sharded namespaces").
  size_t shards = 1;
};

/// \brief One Resolve call: explicit candidate pairs, or — with `block_all`
/// — every candidate the namespace's blocking index currently implies.
struct ResolveRequest {
  std::vector<RecordPair> pairs;
  bool block_all = false;
  /// When > 0, responses carry top-k explanations per pair.
  size_t explain_top_k = 0;
};

/// \brief Wall-clock breakdown of one gateway request. Read paths (Resolve /
/// ResolveRecord) fill blocking, shard_merge (sharded namespaces only),
/// featurize, classify, score and review; AddRecord fills wal_append and
/// publish. Each stage is measured once and that same measurement also feeds
/// the namespace's stage-latency histograms (see docs/OBSERVABILITY.md), so
/// per-request timings and aggregate telemetry always agree on boundaries.
struct StageTiming {
  /// Gateway-wide id of the request this breakdown belongs to (assigned
  /// monotonically across Resolve / ResolveRecord / AddRecord), so stage
  /// logs correlate with responses and captured RequestTraces.
  uint64_t request_id = 0;
  double blocking_ms = 0.0;
  /// Sharded namespaces only: of blocking_ms, the cross-shard merge phase
  /// (deterministic global ordering + equivalence tagging). A sub-span of
  /// blocking_ms — already included there, hence not summed into total_ms().
  /// Stays 0 for unsharded namespaces.
  double shard_merge_ms = 0.0;
  /// The read path's featurize, classify and score stages interleave tile
  /// by tile in one chunk-parallel pass; each gets the pass's wall time in
  /// proportion to its summed per-tile busy time (drift observation's and
  /// the top-k bookkeeping's share stays unattributed).
  double featurize_ms = 0.0;   ///< metric evaluation (prepared kernels)
  double classify_ms = 0.0;    ///< classifier inference over the metric rows
  double score_ms = 0.0;       ///< risk scoring (rule activation + kernel)
  double review_ms = 0.0;      ///< review-queue enqueue (top-k offer + WAL)
  double wal_append_ms = 0.0;  ///< AddRecord: durable WAL append + flush
  double publish_ms = 0.0;     ///< AddRecord: snapshot derivation + swap
  double total_ms() const {
    return blocking_ms + featurize_ms + classify_ms + score_ms + review_ms +
           wal_append_ms + publish_ms;
  }
};

/// \brief Scored candidate pairs plus the serving metadata.
struct ResolveResponse {
  /// Gateway-assigned id of this request (same value as timing.request_id);
  /// quote it to find the request's captured trace in RecentTraces().
  uint64_t request_id = 0;
  /// The pairs that were scored (request order, or the blocker's
  /// deterministic order under block_all); scores.risk[i] belongs to
  /// pairs[i].
  std::vector<RecordPair> pairs;
  ScoreResponse scores;
  StageTiming timing;
};

/// \brief Result of probing one raw record: the blocking candidates on the
/// opposite side and their scores against the probe.
struct ProbeResponse {
  /// Gateway-assigned id of this request (same value as timing.request_id).
  uint64_t request_id = 0;
  std::vector<size_t> candidates;
  ScoreResponse scores;
  StageTiming timing;
};

/// \brief Request-trace capture configuration (docs/TRACING.md). Defaults
/// are cheap: 1-in-64 head sampling into a 256-slot ring, slow/high-risk
/// tail capture off until a threshold is set.
struct TraceOptions {
  /// Master switch. Off = no trace buffer, no per-request stage recording;
  /// request ids are still assigned and returned.
  bool enabled = true;
  /// Head sampling: capture every Nth request (by request id); 0 disables
  /// head sampling (tail capture below still applies).
  size_t sample_every = 64;
  /// Slots in the trace ring buffer (drop-oldest on overflow).
  size_t buffer_capacity = 256;
  /// Tail capture: requests slower than this are always captured; <= 0
  /// disables the latency trigger.
  double slow_request_ms = 0.0;
  /// Tail capture: requests whose max risk score reaches this are always
  /// captured; < 0 disables the risk trigger.
  double high_risk_threshold = -1.0;
  /// Riskiest pairs per captured trace that carry rule activations and the
  /// scoring model's explanation (RiskModel::Explain).
  size_t top_k = 3;
};

/// \brief Drift-monitoring configuration (docs/TRACING.md). Requires
/// enable_metrics: the live distributions are ValueHistogram instruments
/// and the PSI divergences are snapshot-time gauges.
struct DriftOptions {
  /// Master switch for the per-column feature histograms + PSI gauges. A
  /// column whose PSI is at or above the conventional 0.2 counts as drifted
  /// in the learnrisk_gateway_drift_columns_alerted gauge.
  bool enabled = true;
};

/// \brief Gateway configuration (per-namespace durability, telemetry,
/// tracing, drift, parallelism and review settings).
struct GatewayOptions {
  /// When `durability.dir` is set, every namespace is durable: registration
  /// writes `<dir>/<ns>/SHARDS` and checkpoint 1 of each shard's log under
  /// `<dir>/<ns>/shards/s<k>/` (one layout for every shard count),
  /// AddRecord write-ahead-logs each record before publishing it, and
  /// RecoverNamespace rebuilds namespaces after a restart. See
  /// docs/DURABILITY.md.
  DurabilityOptions durability;
  /// Runtime telemetry (docs/OBSERVABILITY.md): per-namespace counters,
  /// per-stage latency histograms, and risk-score distributions, exposed
  /// through MetricsSnapshot(). Recording is lock-free (a few relaxed
  /// atomics per event; the benchmark's `bulk_resolve --trace 1` reports
  /// the measured cost as `obs.metrics_overhead`). Off = no instruments are
  /// created and every recording site is skipped via a null check.
  bool enable_metrics = true;
  /// Request-scoped trace capture (docs/TRACING.md). Independent of
  /// enable_metrics: traces capture even with aggregate metrics off.
  TraceOptions trace;
  /// Online drift monitoring vs the published model's training baseline
  /// (docs/TRACING.md); inert unless enable_metrics is also on.
  DriftOptions drift;
  /// Worker threads each request's featurize/classify passes may use: 0
  /// (default) = the shared process-wide pool, 1 = serial on the request
  /// thread. The shared pool runs one parallel loop at a time, so gateways
  /// serving many concurrent requests set 1 to scale across request threads
  /// instead of queueing on the pool. Bit-identical results either way.
  size_t request_parallelism = 0;
  /// Risk-driven review loop (docs/REVIEW.md): when enabled, every
  /// namespace gets a ReviewQueue and Resolve / ResolveRecord offer their
  /// top-k riskiest decisions to it; DrainReview / SubmitReviewLabel /
  /// RetrainFromReview close the label -> retrain -> publish loop. Durable
  /// namespaces WAL every review mutation and checkpoint the queue, so
  /// queued-but-unlabeled pairs and acked labels survive a restart.
  ReviewOptions review;
};

/// \brief RetrainFromReview configuration (docs/REVIEW.md).
struct ReviewRetrainOptions {
  /// Trainer hyperparameters for the incremental pass.
  IncrementalRetrainOptions retrain;
};

/// \brief What one retrain-and-publish cycle produced.
struct ReviewRetrainResult {
  uint64_t model_version = 0;  ///< version the retrained model serves as
  size_t labels_used = 0;
  size_t mislabeled = 0;       ///< labels disagreeing with the machine label
  /// Per-epoch mean sampled rank loss — deterministic in the trainer seed,
  /// so reruns over identical labels are bit-identical.
  std::vector<double> loss_history;
  double train_ms = 0.0;    ///< incremental retrain wall time
  double publish_ms = 0.0;  ///< baseline build + hot-swap (+ checkpoint)
};

/// \brief Everything RecoverNamespace needs that is *not* in the durable
/// state: the record data, entity ids, dedup flag, and served model version
/// come from disk; the fitted metric suite, classifier, and blocking
/// parameters are code-side configuration the manifest cannot capture, so
/// the caller re-supplies them (they must match the original registration —
/// the schema is fingerprint-checked against the manifest).
struct RecoverNamespaceSpec {
  Schema schema;
  /// Must already be fitted, like NamespaceSpec::suite.
  MetricSuite suite;
  std::shared_ptr<const BinaryClassifier> classifier;
  std::vector<size_t> classifier_columns;
  BlockingConfig blocking;
};

/// \brief Multi-tenant raw-record scoring front end.
///
/// Thread safety / locking contract (full protocol: docs/CONCURRENCY.md):
///  - The gateway-level mutex `mu_` guards only the shape of the namespace
///    map (registration and lookup); it is never held while a request runs.
///  - Each namespace's mutable state is one immutable NamespaceSnapshot
///    (segmented record/prepared stores + blocking index) behind an
///    atomically-swapped shared_ptr. Resolve / ResolveRecord / NumRecords
///    load the pointer once (acquire) and serve the whole request from that
///    frozen snapshot — readers take NO per-namespace lock and are never
///    blocked, delayed, or torn by writers.
///  - AddRecord is the only namespace writer: it serializes with other
///    writers on the owning shard's `writer_mu`, derives a successor
///    snapshot that shares every existing segment plus a new single-record
///    tail, and publishes it with one pointer swap (release). Requests in
///    flight finish on the snapshot they loaded; superseded snapshots are
///    freed by whichever reader or writer drops the last reference.
///  - A namespace registered with NamespaceSpec::shards = S > 1 keeps S
///    independent shards (each its own segment stores, blocking index,
///    snapshot pointer, writer mutex, and — when durable — WAL/checkpoint
///    log). Readers pin every shard's snapshot and merge blocking
///    candidates deterministically (gateway/shard_merge.h), so responses
///    are bit-identical to the unsharded namespace at any S while writers
///    to different shards proceed concurrently.
///  - The FeaturePipeline is immutable after registration and read
///    lock-free. Model publishes go through the registry's hot-swap path
///    and never touch namespace snapshots.
///
/// Featurization serves from per-record PreparedRecord caches owned by the
/// snapshot's segments (built at registration, extended by AddRecord), so
/// the per-pair hot loop never re-tokenizes or re-normalizes a record;
/// outputs stay bit-identical to the raw offline path.
class Gateway {
 public:
  explicit Gateway(GatewayOptions options = {});

  /// \brief Installs a namespace: builds its base snapshot (segmented
  /// record + prepared stores and the blocking index, all copied out of the
  /// spec's tables) and freezes its feature pipeline. Fails on invalid
  /// specs or duplicate names, and — when durable — on committed durable
  /// state for the name (recover it instead) or a flat-layout directory.
  /// Publishing a model is a separate step (Publish / registry()).
  Status RegisterNamespace(const std::string& ns, NamespaceSpec spec);

  bool HasNamespace(const std::string& ns) const;
  std::vector<std::string> Namespaces() const;

  /// \brief Publishes a risk model for the namespace (hot-swap; returns the
  /// namespace's new version). The namespace must be registered. Never
  /// blocks in-flight Resolve calls: they finish on the snapshot they
  /// loaded at score time. `drift_baseline`, when given, freezes the
  /// training-time feature/risk distributions into the new ScorerSnapshot
  /// and arms the namespace's drift gauges against it (docs/TRACING.md); a
  /// Publish without one leaves the gauges reading 0. The baseline is not
  /// persisted, so crash recovery serves without one until the next
  /// Publish.
  Result<uint64_t> Publish(const std::string& ns, RiskModel model,
                           std::shared_ptr<const DriftBaseline>
                               drift_baseline = nullptr);

  /// \brief The embedded registry (namespace -> serving engine).
  ModelRegistry& registry() { return registry_; }
  const ModelRegistry& registry() const { return registry_; }

  /// \brief Scores record pairs end-to-end: candidate generation (or the
  /// request's explicit pairs), prepared-cache featurization, risk scoring.
  /// NotFound for unknown namespaces, InvalidArgument for empty or
  /// ambiguous requests, FailedPrecondition before the first Publish.
  /// Lock-free with respect to the namespace: the whole request runs on one
  /// atomically-loaded snapshot, concurrent with other Resolve calls, with
  /// publishes, and with AddRecord writers.
  Result<ResolveResponse> Resolve(const std::string& ns,
                                  const ResolveRequest& request);

  /// \brief Online single-record path: blocks a raw probe record against
  /// the namespace's opposite side and scores the resulting candidates —
  /// exactly the candidates batch blocking would emit if the probe were
  /// appended (see BlockingIndex::Candidates). The probe is prepared once
  /// per call; candidates come from the snapshot's prepared segments. Same
  /// snapshot semantics as Resolve (no namespace lock).
  Result<ProbeResponse> ResolveRecord(const std::string& ns,
                                      const Record& probe,
                                      size_t explain_top_k = 0);

  /// \brief Appends a record to one side of the namespace — record store,
  /// blocking index, and prepared cache stay index-aligned — making it
  /// visible to subsequent Resolve / ResolveRecord calls. Serializes with
  /// other AddRecord calls on the owning shard's writer mutex (sharded
  /// namespaces route to the least-loaded shard, so writers spread across
  /// shards run concurrently), never blocks readers: concurrent Resolve
  /// calls see the shard fully without the record or fully with it (one
  /// atomic snapshot swap), never a partial update. `entity_id` is optional
  /// ground truth (-1 = unknown).
  /// `timing` (optional) receives the wal_append/publish stage breakdown of
  /// this append — zero elsewhere, and wal_append_ms stays zero for
  /// non-durable namespaces.
  Status AddRecord(const std::string& ns, BlockingSide side, Record record,
                   int64_t entity_id = -1, StageTiming* timing = nullptr);

  /// \brief Current record count of one side of a namespace.
  Result<size_t> NumRecords(const std::string& ns, BlockingSide side) const;

  /// \brief Checkpoints a durable namespace now: materializes the current
  /// snapshot into immutable segment files, starts a fresh WAL, and commits
  /// with one atomic manifest swap (full protocol: docs/DURABILITY.md),
  /// shard by shard, each commit atomic on its own manifest. Shard 0 goes
  /// first and also saves the served model at its exact version plus the
  /// review queue, so a published model is durable once this returns.
  /// Serializes with AddRecord on the shard writer mutexes; readers are
  /// unaffected. FailedPrecondition when durability is off.
  Status Checkpoint(const std::string& ns);

  /// \brief Rebuilds a namespace from its durable state after a restart:
  /// loads the committed checkpoint, replays the WAL tail (torn entries
  /// checksum-detected and truncated), rebuilds the snapshot — bit-identical
  /// outputs to a gateway that never crashed — and re-publishes the
  /// checkpointed model at its recorded version. The namespace continues
  /// accepting AddRecord against the recovered WAL. The shard count comes
  /// from the namespace's SHARDS file. NotFound when no durable state
  /// exists; IOError/InvalidArgument (with the offending file named) on
  /// corrupt or missing state; FailedPrecondition for a directory in the
  /// retired flat layout (a MANIFEST but no SHARDS file), which is left
  /// untouched.
  Status RecoverNamespace(const std::string& ns, RecoverNamespaceSpec spec);

  /// \brief WAL entries appended since the namespace's last checkpoint
  /// (recovery replay counts toward it). FailedPrecondition when durability
  /// is off.
  Result<size_t> WalEntriesSinceCheckpoint(const std::string& ns);

  /// \brief Removes up to `max_items` of the namespace's riskiest queued
  /// review pairs for labeling (r-HUMO's highest-risk-first order). Drained
  /// pairs stay outstanding until SubmitReviewLabel. Durable namespaces log
  /// each drain so a recovered queue reproduces the same displacement
  /// decisions; when a later drain frame fails to append, only the pairs of
  /// the frames before it are drained and returned, and the error comes
  /// back only when the first frame fails. FailedPrecondition when review
  /// is off.
  Result<std::vector<ReviewItem>> DrainReview(const std::string& ns,
                                              size_t max_items);

  /// \brief Records a human label for a drained pair. Durable namespaces
  /// WAL the label before acknowledging, so an acked label is never lost
  /// across a crash. InvalidArgument when `truth` is above 1; NotFound
  /// when the pair is not awaiting a label; FailedPrecondition when review
  /// is off.
  Status SubmitReviewLabel(const std::string& ns, int64_t left, int64_t right,
                           uint8_t truth);

  /// \brief Closes the loop: retrains the serving risk model on every label
  /// collected so far (incremental analytic-gradient pass seeded from the
  /// serving snapshot), refreshes the drift baseline from the label batch,
  /// and hot-publishes the result under live traffic — in-flight Resolves
  /// finish on the snapshot they loaded. Durable namespaces then
  /// checkpoint, so shard 0's manifest records the retrained version.
  /// FailedPrecondition when review is off, before the first Publish, or
  /// below two collected labels (a one-label "batch" cannot rank
  /// mislabeled vs correct).
  Result<ReviewRetrainResult> RetrainFromReview(
      const std::string& ns, const ReviewRetrainOptions& options = {});

  /// \brief The namespace's review-queue accounting snapshot (lock-free
  /// reads). FailedPrecondition when review is off.
  Result<ReviewQueueStats> ReviewStats(const std::string& ns) const;

  /// \brief Point-in-time snapshot of every runtime metric this gateway owns
  /// — request/stage latency histograms, risk-score distributions, WAL and
  /// checkpoint counters, registry and serving-engine counters, and the
  /// snapshot-time gauges (record counts, drift PSI). Feed it to
  /// ExportJson / ExportPrometheusText (obs/export.h). Safe to call
  /// concurrently with serving traffic: instruments are lock-free and the
  /// snapshot never tears an instrument. Empty when
  /// GatewayOptions::enable_metrics is false. Metric catalog:
  /// docs/OBSERVABILITY.md.
  learnrisk::MetricsSnapshot MetricsSnapshot() const;

  /// \brief The captured request traces currently resident in the audit
  /// ring (sorted by request id): head-sampled plus slow / high-risk
  /// exemplars, per TraceOptions. Never blocks serving traffic; a
  /// concurrently completing request's trace is either fully present or
  /// absent. Empty when tracing is disabled. Serialize with
  /// ExportTracesJson (obs/trace.h); schema in docs/TRACING.md.
  std::vector<std::shared_ptr<const RequestTrace>> RecentTraces() const;

 private:
  /// \brief One immutable view of a namespace's data. All heavy members are
  /// segment lists sharing storage with neighboring snapshots; copying a
  /// snapshot (the writer's first step) is a few shared_ptr vector copies.
  struct NamespaceSnapshot {
    SideStore left;
    SideStore right;  ///< unused when dedup
    BlockingIndex index;
  };

  /// \brief The stages StageTiming reports, in execution order — the order
  /// a captured trace lists them in. Indexes the request's stage record and
  /// the per-stage histograms.
  enum Stage : size_t {
    kBlock,
    kShardMerge,
    kFeaturize,
    kClassify,
    kRisk,
    kReview,
    kWalAppend,
    kPublish,
    kNumStages
  };

  /// \brief Per-namespace instrument bundle, cached as raw pointers so the
  /// hot paths record without touching the MetricRegistry. All null when
  /// GatewayOptions::enable_metrics is false — every recording site checks.
  /// Instruments are owned by metric_registry_ and outlive the namespace.
  struct NamespaceMetrics {
    ShardedCounter* resolve_requests = nullptr;        ///< successful Resolves
    ShardedCounter* resolve_record_requests = nullptr; ///< successful probes
    ShardedCounter* pairs_scored = nullptr;
    ShardedCounter* records_added = nullptr;
    ShardedCounter* recoveries = nullptr;
    ShardedCounter* recovered_wal_entries = nullptr;
    ShardedCounter* recovered_wal_bytes_discarded = nullptr;
    /// Request latency (includes failed requests; counters count successes).
    LatencyHistogram* resolve_latency = nullptr;
    LatencyHistogram* resolve_record_latency = nullptr;
    /// Stage latencies, indexed by Stage — the histogram twins of
    /// StageTiming's fields (review is null when review is off).
    std::array<LatencyHistogram*, kNumStages> stages{};
    LatencyHistogram* checkpoint_latency = nullptr;
    LatencyHistogram* recover_latency = nullptr;
    /// Review-loop instruments (docs/REVIEW.md); null when review is off.
    ShardedCounter* review_enqueued = nullptr;
    ShardedCounter* review_merged = nullptr;
    ShardedCounter* review_dropped = nullptr;
    ShardedCounter* review_drained = nullptr;
    ShardedCounter* review_labels = nullptr;
    ShardedCounter* review_retrains = nullptr;
    /// Review-WAL appends that failed during a fail-open enqueue (the
    /// request was served, the offer was skipped) or past a drain's first
    /// frame (the durable prefix was drained).
    ShardedCounter* review_log_failures = nullptr;
    /// Recovery-replay drain/label events whose pair was not found (a WAL
    /// an older build wrote after a drain failed partway); tolerated but
    /// surfaced.
    ShardedCounter* review_replay_misses = nullptr;
    LatencyHistogram* retrain_latency = nullptr;
    LatencyHistogram* retrain_publish_latency = nullptr;
    ValueHistogram* risk_scores = nullptr;  ///< served risk distribution
    /// Per-metric-column live feature distributions (drift monitoring;
    /// column order matches the pipeline's metric_names()). Empty unless
    /// enable_metrics and drift.enabled are both on.
    std::vector<ValueHistogram*> feature_values;
    /// Volume counters recorded inside NamespaceLog (bytes, frames, fsyncs).
    DurabilityMetrics durability;
  };

  /// \brief One independent shard of a namespace: its own snapshot pointer,
  /// writer mutex, and (when durable) WAL/checkpoint log. Unsharded
  /// namespaces are the S == 1 case of the same structure.
  struct Shard {
    /// Serializes AddRecord writers *of this shard*; readers never touch
    /// it, and writers to sibling shards proceed concurrently.
    std::mutex writer_mu;
    /// Current shard snapshot; accessed only via std::atomic_load/
    /// atomic_store (acquire/release). Never mutated in place.
    std::shared_ptr<const NamespaceSnapshot> snapshot;
    /// Durable WAL + checkpoint state; null when durability is off. Guarded
    /// by writer_mu like every other write-side structure.
    std::unique_ptr<NamespaceLog> log;
  };

  struct NamespaceState {
    bool dedup = false;
    Schema schema;
    /// Immutable after registration; read lock-free.
    FeaturePipeline pipeline;
    /// The S shards (never resized after registration; the unique_ptr
    /// indirection keeps Shard's mutex off any reallocation path). Records
    /// live on shard (global id % S) at local index (global id / S); see
    /// gateway/shard_merge.h.
    std::vector<std::unique_ptr<Shard>> shards;
    /// Writer routing state: records assigned per shard per side so far.
    /// AddRecord routes to the least-loaded shard (lowest index on ties),
    /// which reproduces the unsharded id sequence exactly for sequential
    /// adds. Guarded by route_mu (held only for the argmin, never across
    /// the append).
    std::mutex route_mu;
    std::vector<size_t> routed_left;
    std::vector<size_t> routed_right;  ///< unused when dedup
    /// Immutable after registration, like `pipeline`; read lock-free.
    NamespaceMetrics metrics;
    /// The namespace's review queue; null when GatewayOptions::review is
    /// off. Internally synchronized — but in durable mode every mutation
    /// additionally serializes behind shard 0's writer_mu so WAL order
    /// equals apply order (review state is namespace-level, so it rides on
    /// shard 0's log).
    std::shared_ptr<ReviewQueue> review;
    /// Recovery requeued outstanding pairs and no shard 0 checkpoint has
    /// committed the queue since (CommitRequeueLocked). Guarded by shard
    /// 0's writer_mu.
    bool review_requeue_unlogged = false;

    const SideStore& right_store(const NamespaceSnapshot& snap) const {
      return dedup ? snap.left : snap.right;
    }
  };

  /// \brief A request's frozen view of every shard (an unsharded namespace
  /// is one shard): one acquire load per shard, plus the blocking indexes
  /// and global-id side views the merge and featurize passes read.
  struct PinnedView {
    std::vector<std::shared_ptr<const NamespaceSnapshot>> snaps;
    std::vector<const BlockingIndex*> indexes;
    ShardedSideView left;
    ShardedSideView right;
  };
  /// \brief The request-scoped stage record (defined in gateway.cc).
  class RequestScope;
  /// \brief Record ids of a request's scored rows (defined in gateway.cc).
  class PairKeys;
  /// \brief One scored request as review and tracing read it (gateway.cc).
  struct Scored;

  /// \brief A gateway-wide mode a method needs (set by GatewayOptions, so
  /// every namespace of the gateway has it or none does).
  enum class Mode { kAny, kReview, kDurable };
  /// \brief FailedPrecondition unless `mode` is on for this gateway.
  Status CheckMode(Mode mode) const;
  /// \brief The registered namespace (NotFound otherwise), then
  /// CheckMode(mode): the lookup's status wins.
  Result<std::shared_ptr<NamespaceState>> State(const std::string& ns,
                                                Mode mode = Mode::kAny) const;
  /// \brief The checks a new namespace passes before anything is built:
  /// a valid name, a serving spec consistent with `schema`, and a name not
  /// yet registered (`kind` names the spec in messages).
  template <typename Spec>
  Status CheckNewNamespace(const std::string& ns, const Spec& spec,
                           const Schema& schema, const std::string& kind) const;

  /// \brief The model a namespace serves: its engine plus one consistent
  /// read of the version and snapshot.
  struct ServedModel {
    std::shared_ptr<ServingEngine> engine;
    uint64_t version = 0;
    std::shared_ptr<const ScorerSnapshot> snapshot;  ///< never null
  };
  /// \brief The namespace's served model; FailedPrecondition before its
  /// first Publish.
  Result<ServedModel> Served(const std::string& ns);
  /// \brief The drift baseline of the snapshot the namespace serves right
  /// now; null before the first Publish or when that snapshot has none.
  /// The drift gauge callbacks read it at scrape time.
  std::shared_ptr<const DriftBaseline> ServedDriftBaseline(
      const std::string& ns);

  static std::shared_ptr<const NamespaceSnapshot> LoadShardSnapshot(
      const Shard& shard);
  /// \brief Records visible on one side of a shard's current snapshot, or
  /// of the whole namespace (summed over its shards).
  static size_t RecordCount(const Shard& shard, BlockingSide side);
  static size_t RecordCount(const NamespaceState& s, BlockingSide side);
  /// \brief Bytes the prepared caches of one side's visible records hold
  /// (SideStore::prepared_bytes), summed over the namespace's shards.
  static size_t PreparedBytes(const NamespaceState& s, BlockingSide side);
  /// \brief WAL entries since the last checkpoint, summed over the shard
  /// logs (each read under its writer_mu); the namespace must be durable.
  static size_t WalBacklog(const NamespaceState& s);
  static PinnedView Pin(const NamespaceState& state);
  /// \brief Picks the shard for the next AddRecord on a side (least-loaded,
  /// lowest index on ties) and claims the slot under route_mu.
  static size_t RouteShard(NamespaceState& state, BlockingSide side);
  /// \brief Builds a namespace's state over per-shard (left, right) tables
  /// (right unused when dedup), shared by registration and recovery: the
  /// feature pipeline, one base snapshot per shard, the writer routing
  /// counts, the instruments and an empty review queue.
  Result<std::shared_ptr<NamespaceState>> BuildState(
      const std::string& ns, Schema schema, bool dedup,
      FeaturePipeline pipeline, const BlockingConfig& blocking,
      const std::vector<std::pair<const Table*, const Table*>>& tables);
  /// \brief Adds a built namespace to the map (FailedPrecondition if the
  /// name was taken meanwhile) and registers its gauges.
  Status Install(const std::string& ns,
                 const std::shared_ptr<NamespaceState>& state);
  /// \brief Runs a request's tiled featurize + classify pass (one of the
  /// pipeline's Run*Tiles over the request's rows) with the given TileFn.
  using TilePassRunner = std::function<Result<TilePassTiming>(const TileFn&)>;
  /// \brief The request body shared by Resolve and ResolveRecord: pins
  /// one ScorerSnapshot for the whole request, runs the tiled pass whose
  /// chunks score each tile against it, bucket it for drift and keep their
  /// riskiest rows, then merges the chunks once, offers the top rows for
  /// review, counts the request into `requests` and captures the trace.
  /// `prepare_ms` (probe preparation) is added to the featurize stage.
  Status ServeBatch(const std::string& ns, NamespaceState& s,
                    RequestScope& scope, const PairKeys& keys,
                    const TilePassRunner& run_pass, double prepare_ms,
                    size_t explain_top_k, ShardedCounter* requests,
                    ScoreResponse* scores);
  /// \brief Checkpoint body for one shard of a durable namespace; caller
  /// holds that shard's writer_mu. Shard 0 additionally persists the review
  /// queue (its mutations serialize on the same mutex, so the snapshot is
  /// consistent with the WAL being reset).
  Status CheckpointLocked(const std::string& ns, NamespaceState& s,
                          Shard& shard);
  /// \brief Before the first review event logged after a recovery that
  /// requeued outstanding pairs, commits the queue as shard 0's checkpoint
  /// (caller holds shard 0's writer_mu). The requeue is no WAL event, so
  /// without it the next recovery would replay the new events while those
  /// pairs were still outstanding, and its offers would decide differently
  /// than they did live.
  Status CommitRequeueLocked(const std::string& ns, NamespaceState& s);
  /// \brief Offers the request's top-budget riskiest decisions to the
  /// namespace's review queue; durable namespaces WAL each offer first
  /// under shard 0's writer_mu, and a failed append is counted and ends the
  /// request's offers without failing it. Timed as the review stage.
  void EnqueueReview(const std::string& ns, NamespaceState& s,
                     RequestScope& scope, const Scored& scored);
  /// \brief Get-or-creates the namespace's instrument bundle in
  /// metric_registry_. Only called when enable_metrics is on.
  /// `metric_names` labels the per-column drift histograms (one per metric
  /// column; skipped when drift is off).
  NamespaceMetrics CreateNamespaceMetrics(
      const std::string& ns, const std::vector<std::string>& metric_names);
  /// \brief Registers the namespace's snapshot-time gauges (record counts,
  /// WAL backlog, per-column drift PSI); the callbacks hold a weak_ptr so
  /// they outlive nothing.
  void RegisterStateGauges(const std::string& ns,
                           const std::shared_ptr<NamespaceState>& state);

  /// \brief Next gateway-wide request id (1-based, monotone across APIs).
  uint64_t NextRequestId() {
    return next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// \brief Applies the capture policy to a finished request and, when it
  /// captures, builds the RequestTrace (stages, counts, top-k riskiest
  /// decisions with activations + explanations) and pushes it into the
  /// ring. `scored` is null for AddRecord, whose traces carry no decisions.
  void MaybeCaptureTrace(const std::string& ns, const RequestScope& scope,
                         uint64_t total_ns, const Scored* scored);

  GatewayOptions options_;
  /// Owns every instrument; declared before registry_ so the raw instrument
  /// pointers handed to the model registry (and through it to engines)
  /// outlive their users on destruction.
  MetricRegistry metric_registry_;
  ModelRegistry registry_;
  /// The trace audit ring; null when TraceOptions::enabled is false.
  /// Lock-free on both sides (docs/TRACING.md).
  std::unique_ptr<TraceBuffer> traces_;
  /// Gateway-wide request-id counter (ids are NextRequestId() results).
  std::atomic<uint64_t> next_request_id_{0};
  mutable std::mutex mu_;  ///< guards namespaces_ map shape only
  std::map<std::string, std::shared_ptr<NamespaceState>> namespaces_;
};

}  // namespace learnrisk

#endif  // LEARNRISK_GATEWAY_GATEWAY_H_
