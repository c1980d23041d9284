// Copyright 2026 The LearnRisk Authors

#include "gateway/gateway.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <tuple>
#include <utility>

#include "common/timer.h"
#include "gateway/shard_merge.h"
#include "risk/model_io.h"

namespace learnrisk {
namespace {

// PSI at or above this counts a column as drifted in the
// learnrisk_gateway_drift_columns_alerted gauge (the conventional line).
constexpr double kDriftAlertPsi = 0.2;

// RetrainFromReview refuses below this many collected labels: a one-label
// "batch" cannot rank mislabeled vs correct.
constexpr size_t kMinReviewLabels = 2;

// Feeds a millisecond measurement that was already taken (a stage slot, a
// retrain or recovery timer) into a nanosecond histogram — one clock
// reading backing both views.
void RecordMs(LatencyHistogram* histogram, double ms) {
  if (histogram == nullptr) return;
  histogram->Record(ms <= 0.0 ? 0 : static_cast<uint64_t>(ms * 1e6));
}

// Steady-clock nanoseconds (trace start timestamps: monotone within the
// process, comparable across requests, never wall-clock).
uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- Durable namespace layout (docs/DURABILITY.md "On-disk layout") --------
// Every durable namespace, whatever its shard count, marks its directory
// with a SHARDS meta file and keeps one full NamespaceLog per shard under
// <dir>/<ns>/shards/s<k>/, so every per-shard WAL/checkpoint/manifest keeps
// the exact single-log protocol. The SHARDS file is written (tmp + rename)
// before any shard log exists; the namespace counts as committed only once
// every shard's manifest is committed — anything less is registration
// debris. A top-level <ns>/MANIFEST without SHARDS is the retired flat
// layout: it is neither wiped nor recovered.

constexpr char kShardsFileName[] = "SHARDS";
constexpr char kShardsHeader[] = "learnrisk-namespace-shards v1";

std::string ShardsFilePath(const DurabilityOptions& options,
                           const std::string& ns) {
  return options.dir + "/" + ns + "/" + kShardsFileName;
}

// Durability options addressing the per-shard logs of one namespace: shard
// k's log is namespace "s<k>" under <dir>/<ns>/shards.
DurabilityOptions ShardDurability(const DurabilityOptions& options,
                                  const std::string& ns) {
  DurabilityOptions shard = options;
  shard.dir = options.dir + "/" + ns + "/shards";
  return shard;
}

std::string ShardLogName(size_t shard) {
  return "s" + std::to_string(shard);
}

Status WriteShardsFile(const std::string& path, size_t num_shards) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return Status::IOError("cannot open '" + tmp + "'");
    out << kShardsHeader << "\n" << num_shards << "\n";
    out.flush();
    if (!out) return Status::IOError("error writing '" + tmp + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("cannot commit '" + path + "': " + ec.message());
  }
  return Status::OK();
}

// Shard count recorded for a namespace; NotFound when it has no durable
// state, FailedPrecondition for a flat-layout directory. The file is
// rename-committed, so anything but the header line and one decimal count
// >= 1 is real damage, not a torn write.
Result<size_t> ReadShardsFile(const DurabilityOptions& options,
                              const std::string& ns) {
  const std::string path = ShardsFilePath(options, ns);
  if (!std::filesystem::exists(path)) {
    if (NamespaceLog::Exists(options.dir, ns)) {
      return Status::FailedPrecondition(
          "namespace directory '" + options.dir + "/" + ns +
          "' has a MANIFEST but no SHARDS file: the flat on-disk layout is "
          "no longer supported, and the directory is left untouched");
    }
    return Status::NotFound("no durable state for namespace '" + ns +
                            "' under '" + options.dir + "'");
  }
  std::ifstream in(path);
  std::string header;
  std::string count;
  std::string rest;
  const bool two_lines = in && std::getline(in, header) &&
                         header == kShardsHeader && std::getline(in, count) &&
                         !std::getline(in, rest);
  size_t num_shards = 0;
  const char* end = count.data() + count.size();
  const std::from_chars_result digits =
      std::from_chars(count.data(), end, num_shards);
  if (!two_lines || digits.ec != std::errc() || digits.ptr != end ||
      num_shards < 1) {
    return Status::IOError("corrupt shard meta file '" + path + "'");
  }
  return num_shards;
}

// The records shard `shard` of `num_shards` owns: global ids congruent to
// `shard` (mod num_shards), in ascending order, so shard-local index i is
// global id i * num_shards + shard.
Result<Table> ShardSubTable(const Table& src, size_t shard,
                            size_t num_shards) {
  Table sub(src.schema());
  for (size_t i = shard; i < src.num_records(); i += num_shards) {
    LEARNRISK_RETURN_NOT_OK(sub.Append(src.record(i), src.entity_id(i)));
  }
  return sub;
}

// One ranked row of a request: its risk, row, classifier probability and
// metric row — what review offers and trace capture read.
struct RankedRow {
  double risk;
  size_t row;
  double prob;
  const double* features;
};

// The ranking order: risk descending, ties broken by row ascending.
bool Riskier(const RankedRow& a, const RankedRow& b) {
  if (a.risk != b.risk) return a.risk > b.risk;
  return a.row < b.row;
}

// The min(k, n) riskiest rows one chunk of a tiled pass has offered, with
// copies of their metric rows, kept in caller storage of k slots: a bounded
// heap whose front is the worst kept row, so a row that cannot enter costs
// one comparison. No row outside a chunk's own top-k can be in the
// request's, so ranking the chunks' kept rows together equals a partial
// sort of the whole risk column.
class TopRiskRows {
 public:
  TopRiskRows(size_t k, size_t cols, RankedRow* rows, double* features)
      : k_(k), cols_(cols), rows_(rows), features_(features) {}

  void Offer(size_t row, double risk, double prob, const double* values) {
    const RankedRow offered{risk, row, prob, nullptr};
    if (size_ < k_) {
      double* slot = features_ + size_ * cols_;
      std::copy(values, values + cols_, slot);
      rows_[size_++] = RankedRow{risk, row, prob, slot};
      std::push_heap(rows_, rows_ + size_, Riskier);
    } else if (k_ > 0 && Riskier(offered, rows_[0])) {
      // Evict the worst kept row and reuse its metric-row slot.
      std::pop_heap(rows_, rows_ + size_, Riskier);
      RankedRow& evicted = rows_[size_ - 1];
      double* slot = features_ + (evicted.features - features_);
      std::copy(values, values + cols_, slot);
      evicted = RankedRow{risk, row, prob, slot};
      std::push_heap(rows_, rows_ + size_, Riskier);
    }
  }

  size_t size() const { return size_; }

 private:
  size_t k_;
  size_t cols_;
  RankedRow* rows_;    ///< k_ slots
  double* features_;   ///< k_ * cols_ values
  size_t size_ = 0;
};

// One request's tiled serving pass (gateway/feature_pipeline.h). Consume
// checks a tile's classifier probabilities, scores the tile against the one
// snapshot pinned for the request, straight into the response columns,
// buckets its metric rows and risks for drift, and keeps the chunk's
// riskiest rows. Drift buckets are only flushed once the whole request has
// succeeded. A null scorer (no model published, or one the metric rows are
// too narrow for) checks probabilities only.
//
// Per-chunk state (drift buckets, timings, kept rows) lives in storage this
// object allocates on the request's thread, indexed by the chunk index the
// pass hands each tile: chunk c keeps its rows in slots
// [c * chunk_slots_, (c + 1) * chunk_slots_), so chunks share nothing and
// need no lock. Keeping request-sized buffers off the pool's threads keeps
// them out of those threads' malloc arenas, which would otherwise hold the
// memory after the request.
class ServePass {
 public:
  ServePass(const ScorerSnapshot* scorer, size_t explain_top_k,
            size_t drift_columns, bool observe_risk, size_t top_k,
            size_t cols, size_t rows, size_t chunks, ScoreResponse* scores)
      : scorer_(scorer),
        explain_top_k_(explain_top_k),
        top_k_(top_k),
        scores_(scores),
        chunk_slots_(chunks == 0 ? 0
                                 : std::min(top_k, (rows + chunks - 1) /
                                                       chunks)),
        top_rows_(chunks * chunk_slots_),
        top_features_(top_rows_.size() * cols) {
    chunks_.reserve(chunks);
    for (size_t c = 0; c < chunks; ++c) {
      const size_t offset = c * chunk_slots_;
      chunks_.push_back(Chunk{FeatureBuckets(drift_columns),
                              FeatureBuckets(observe_risk ? 1 : 0),
                              TopRiskRows(chunk_slots_, cols,
                                          top_rows_.data() + offset,
                                          top_features_.data() +
                                              offset * cols)});
    }
  }

  // The pass's TileFn: called on chunk `c`'s thread for each of its tiles.
  void Consume(size_t c, const FeatureTile& tile) {
    Chunk& chunk = chunks_[c];
    if (chunk.invalid_row != SIZE_MAX) return;
    const size_t invalid = FirstInvalidProbability(tile.probs, tile.rows);
    if (invalid < tile.rows) {
      chunk.invalid_row = tile.begin + invalid;
      return;
    }
    if (scorer_ == nullptr) return;
    double* risk = scores_->risk.data() + tile.begin;
    Timer timer;
    scorer_->ScoreRows(tile.features, tile.cols, tile.probs, tile.rows,
                       explain_top_k_, &chunk.scratch, risk,
                       scores_->machine_label.data() + tile.begin,
                       explain_top_k_ > 0
                           ? scores_->explanations.data() + tile.begin
                           : nullptr);
    chunk.score_ms += timer.ElapsedMillis();
    timer.Reset();
    chunk.features.Observe(tile.features, tile.rows, tile.cols);
    chunk.risk.Observe(risk, tile.rows, 1);
    if (top_k_ > 0) {
      for (size_t i = 0; i < tile.rows; ++i) {
        chunk.top.Offer(tile.begin + i, risk[i], tile.probs[i],
                        tile.features + i * tile.cols);
      }
    }
    chunk.other_ms += timer.ElapsedMillis();
  }

  double score_busy_ms() const {
    double ms = 0.0;
    for (const Chunk& chunk : chunks_) ms += chunk.score_ms;
    return ms;
  }
  double other_busy_ms() const {
    double ms = 0.0;
    for (const Chunk& chunk : chunks_) ms += chunk.other_ms;
    return ms;
  }
  // First row whose classifier probability is invalid; SIZE_MAX if none.
  size_t invalid_row() const {
    size_t row = SIZE_MAX;
    for (const Chunk& chunk : chunks_) row = std::min(row, chunk.invalid_row);
    return row;
  }

  // The request's top_k riskiest rows, best first; call once, after a
  // successful pass. The rows point into this object's storage.
  const std::vector<RankedRow>& TopRows() {
    size_t kept = 0;
    for (size_t c = 0; c < chunks_.size(); ++c) {
      for (size_t i = 0; i < chunks_[c].top.size(); ++i) {
        top_rows_[kept++] = top_rows_[c * chunk_slots_ + i];
      }
    }
    const size_t k = std::min(top_k_, kept);
    std::partial_sort(top_rows_.begin(),
                      top_rows_.begin() + static_cast<ptrdiff_t>(k),
                      top_rows_.begin() + static_cast<ptrdiff_t>(kept),
                      Riskier);
    top_rows_.resize(k);
    return top_rows_;
  }

  void FlushDrift(const std::vector<ValueHistogram*>& feature_values,
                  ValueHistogram* risk_scores) const {
    for (const Chunk& chunk : chunks_) {
      for (size_t c = 0; c < chunk.features.num_columns(); ++c) {
        chunk.features.Flush(c, feature_values[c]);
      }
      if (chunk.risk.num_columns() > 0) chunk.risk.Flush(0, risk_scores);
    }
  }

 private:
  // What one chunk's tiles leave behind for the request thread.
  struct Chunk {
    FeatureBuckets features;
    FeatureBuckets risk;
    TopRiskRows top;  ///< the chunk's riskiest rows, in its chunk_slots_
    ScoreScratch scratch{};
    double score_ms = 0.0;
    double other_ms = 0.0;
    size_t invalid_row = SIZE_MAX;
  };

  const ScorerSnapshot* scorer_;
  const size_t explain_top_k_;
  const size_t top_k_;
  ScoreResponse* scores_;
  const size_t chunk_slots_;  ///< kept-row slots per chunk
  std::vector<RankedRow> top_rows_;   ///< chunks * chunk_slots_
  std::vector<double> top_features_;  ///< cols values per kept-row slot
  std::vector<Chunk> chunks_;
};

}  // namespace

template <typename Spec>
Status Gateway::CheckNewNamespace(const std::string& ns, const Spec& spec,
                                  const Schema& schema,
                                  const std::string& kind) const {
  if (!ModelRegistry::ValidNamespace(ns)) {
    return Status::InvalidArgument("invalid namespace '" + ns + "'");
  }
  if (spec.suite.num_metrics() == 0) {
    return Status::InvalidArgument(kind + " spec has an empty metric suite");
  }
  if (!spec.suite.schema().Equals(schema)) {
    // A suite fitted for other attributes would featurize the wrong columns.
    return Status::InvalidArgument(
        kind + " spec's metric suite was built for a different schema");
  }
  if (spec.classifier == nullptr) {
    return Status::InvalidArgument(kind + " spec has no classifier");
  }
  for (size_t c : spec.classifier_columns) {
    if (c >= spec.suite.num_metrics()) {
      return Status::InvalidArgument("classifier column out of range");
    }
  }
  LEARNRISK_RETURN_NOT_OK(CheckBlockingConfig(spec.blocking, schema));
  if (HasNamespace(ns)) {
    // Checked again at Install (the build is lock-free and could race
    // another registration); this early exit just avoids building the base
    // segments and the blocking index for a name that's taken.
    return Status::FailedPrecondition("namespace '" + ns +
                                      "' already registered");
  }
  return Status::OK();
}

// The request-scoped stage record: one slot per Stage with a "ran" bit,
// plus the request's id, trace start and end-to-end latency span. Each
// stage is measured once, into its slot. Finish() — or the destructor, on
// error returns — derives StageTiming and the stage histograms from the
// slots; a captured trace derives its stage list from them.
class Gateway::RequestScope {
 public:
  static constexpr const char* kStageNames[kNumStages] = {
      "block", "shard_merge", "featurize", "classify",
      "risk",  "review",      "wal_append", "publish"};

  RequestScope(const char* api, uint64_t request_id, bool tracing,
               LatencyHistogram* latency, const NamespaceMetrics& metrics,
               StageTiming* timing)
      : api_(api),
        request_id_(request_id),
        start_ns_(tracing ? SteadyNowNs() : 0),
        metrics_(metrics),
        timing_(timing),
        request_span_(latency) {
    timing_->request_id = request_id;
  }
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;
  ~RequestScope() { Finish(); }

  const char* api() const { return api_; }
  uint64_t request_id() const { return request_id_; }
  uint64_t start_ns() const { return start_ns_; }

  // Marks `stage` as run and returns its slot, for a TraceSpan to time
  // into or a pre-timed measurement to land in.
  double* Slot(Stage stage) {
    ran_[stage] = true;
    return &ms_[stage];
  }

  // Ends the request (idempotent) and returns its elapsed nanoseconds.
  uint64_t Finish() {
    const uint64_t total_ns = request_span_.Stop();
    if (finished_) return total_ns;
    finished_ = true;
    for (size_t i = 0; i < kNumStages; ++i) {
      timing_->*kTimingFields[i] = ms_[i];
      if (ran_[i]) RecordMs(metrics_.stages[i], ms_[i]);
    }
    return total_ns;
  }

  std::vector<TraceStageSpan> TraceStages() const {
    std::vector<TraceStageSpan> stages;
    for (size_t i = 0; i < kNumStages; ++i) {
      if (ran_[i]) stages.push_back(TraceStageSpan{kStageNames[i], ms_[i]});
    }
    return stages;
  }

 private:
  static constexpr double StageTiming::*kTimingFields[kNumStages] = {
      &StageTiming::blocking_ms,   &StageTiming::shard_merge_ms,
      &StageTiming::featurize_ms,  &StageTiming::classify_ms,
      &StageTiming::score_ms,      &StageTiming::review_ms,
      &StageTiming::wal_append_ms, &StageTiming::publish_ms};

  const char* api_;
  uint64_t request_id_;
  uint64_t start_ns_;
  const NamespaceMetrics& metrics_;
  StageTiming* timing_;
  TraceSpan request_span_;
  std::array<double, kNumStages> ms_{};
  std::array<bool, kNumStages> ran_{};
  bool finished_ = false;
};

// Record ids of a request's scored rows. Resolve rows key as their
// (left, right) pair; a probe is not a stored record, so ResolveRecord rows
// key on the candidate alone, with left = -1.
class Gateway::PairKeys {
 public:
  explicit PairKeys(const std::vector<RecordPair>& pairs) : pairs_(&pairs) {}
  explicit PairKeys(const std::vector<size_t>& candidates)
      : candidates_(&candidates) {}

  size_t size() const {
    return pairs_ != nullptr ? pairs_->size() : candidates_->size();
  }
  int64_t left(size_t row) const {
    return pairs_ != nullptr ? static_cast<int64_t>((*pairs_)[row].left) : -1;
  }
  int64_t right(size_t row) const {
    return static_cast<int64_t>(pairs_ != nullptr ? (*pairs_)[row].right
                                                  : (*candidates_)[row]);
  }

 private:
  const std::vector<RecordPair>* pairs_ = nullptr;
  const std::vector<size_t>* candidates_ = nullptr;
};

struct Gateway::Scored {
  const PairKeys& keys;
  const ScoreResponse& scores;
  const ScorerSnapshot& scorer;  ///< the snapshot that produced `scores`
  /// The riskiest rows, best first, with their probabilities and metric
  /// rows — as many as the larger of the review budget and the trace's
  /// top_k: one ranking feeds both consumers.
  const std::vector<RankedRow>& top_risk;
};

Gateway::Gateway(GatewayOptions options)
    : options_(std::move(options)) {
  if (options_.trace.enabled) {
    traces_ = std::make_unique<TraceBuffer>(options_.trace.buffer_capacity);
  }
  if (!options_.enable_metrics) return;
  if (traces_ != nullptr) {
    metric_registry_.GaugeCallback(
        "learnrisk_gateway_traces_captured", {},
        "Request traces captured into the audit ring (head + tail)",
        [this]() { return static_cast<int64_t>(traces_->pushed()); });
    metric_registry_.GaugeCallback(
        "learnrisk_gateway_traces_dropped", {},
        "Captured traces overwritten before a scrape (ring overflow)",
        [this]() { return static_cast<int64_t>(traces_->dropped()); });
  }
  // Gateway-wide instruments: the registry's publish counter, the
  // engine-level serving counters (shared by every engine the registry
  // creates), and a snapshot-time gauge over registry state.
  ModelRegistryMetrics registry_metrics;
  registry_metrics.publishes =
      metric_registry_.Counter("learnrisk_registry_publishes_total", {},
                               "Successful model publishes via the registry");
  ServingEngineMetrics engine_metrics;
  engine_metrics.publishes =
      metric_registry_.Counter("learnrisk_serving_publishes_total", {},
                               "Scorer snapshot swaps installed by engines");
  engine_metrics.score_batches =
      metric_registry_.Counter("learnrisk_serving_score_batches_total", {},
                               "Successful ServingEngine::Score calls and "
                               "gateway requests");
  engine_metrics.scored_pairs =
      metric_registry_.Counter("learnrisk_serving_scored_pairs_total", {},
                               "Pairs scored across those batches");
  engine_metrics.score_ns = metric_registry_.Latency(
      "learnrisk_serving_score_latency_seconds", {},
      "Per-batch ServingEngine::Score wall time (all outcomes); per "
      "gateway request, its score stage");
  registry_.set_metrics(registry_metrics, engine_metrics);
  metric_registry_.GaugeCallback(
      "learnrisk_registry_namespaces", {},
      "Namespaces known to the model registry", [this]() {
        return static_cast<int64_t>(registry_.Namespaces().size());
      });
}

learnrisk::MetricsSnapshot Gateway::MetricsSnapshot() const {
  return metric_registry_.Snapshot();
}

Gateway::NamespaceMetrics Gateway::CreateNamespaceMetrics(
    const std::string& ns, const std::vector<std::string>& metric_names) {
  NamespaceMetrics m;
  const MetricLabels ns_labels = {{"namespace", ns}};
  if (options_.drift.enabled) {
    m.feature_values.reserve(metric_names.size());
    for (const std::string& column : metric_names) {
      // Label keys sorted ("column" < "namespace") like every other family.
      m.feature_values.push_back(metric_registry_.Values(
          "learnrisk_gateway_feature_value",
          {{"column", column}, {"namespace", ns}},
          "Distribution of served feature values per metric column"));
    }
  }
  for (size_t i = 0; i < kNumStages; ++i) {
    if (i == kReview && !options_.review.enabled) continue;
    m.stages[i] = metric_registry_.Latency(
        "learnrisk_gateway_stage_latency_seconds",
        {{"namespace", ns}, {"stage", RequestScope::kStageNames[i]}},
        "Per-stage wall time of gateway requests (StageTiming's twin)");
  }
  if (options_.review.enabled) {
    m.review_enqueued = metric_registry_.Counter(
        "learnrisk_gateway_review_enqueued_total", ns_labels,
        "Review offers admitted into the queue");
    m.review_merged = metric_registry_.Counter(
        "learnrisk_gateway_review_merged_total", ns_labels,
        "Review offers deduplicated onto an already-queued or labeled pair");
    m.review_dropped = metric_registry_.Counter(
        "learnrisk_gateway_review_dropped_total", ns_labels,
        "Review offers dropped at queue capacity (displacements show in "
        "ReviewStats)");
    m.review_drained = metric_registry_.Counter(
        "learnrisk_gateway_review_drained_total", ns_labels,
        "Review items handed to a reviewer via DrainReview");
    m.review_labels = metric_registry_.Counter(
        "learnrisk_gateway_review_labels_total", ns_labels,
        "Human labels accepted via SubmitReviewLabel");
    m.review_retrains = metric_registry_.Counter(
        "learnrisk_gateway_review_retrains_total", ns_labels,
        "Successful retrain-and-publish cycles from review labels");
    m.review_log_failures = metric_registry_.Counter(
        "learnrisk_gateway_review_log_failures_total", ns_labels,
        "Review-WAL append failures absorbed by a fail-open enqueue "
        "(request served, offer skipped) or by a drain past its first "
        "frame (the durable prefix drained)");
    m.review_replay_misses = metric_registry_.Counter(
        "learnrisk_gateway_review_replay_misses_total", ns_labels,
        "Recovery-replay review drains/labels whose pair was not found "
        "(a WAL an older build wrote after a drain failed partway; "
        "tolerated)");
    m.retrain_latency = metric_registry_.Latency(
        "learnrisk_gateway_retrain_latency_seconds", ns_labels,
        "Incremental retrain wall time (labels to tuned model)");
    m.retrain_publish_latency = metric_registry_.Latency(
        "learnrisk_gateway_retrain_publish_latency_seconds", ns_labels,
        "Retrained-model publish wall time (baseline, hot-swap, checkpoint)");
  }
  m.resolve_latency = metric_registry_.Latency(
      "learnrisk_gateway_request_latency_seconds",
      {{"api", "resolve"}, {"namespace", ns}},
      "End-to-end gateway request wall time (all outcomes)");
  m.resolve_record_latency = metric_registry_.Latency(
      "learnrisk_gateway_request_latency_seconds",
      {{"api", "resolve_record"}, {"namespace", ns}},
      "End-to-end gateway request wall time (all outcomes)");
  m.resolve_requests = metric_registry_.Counter(
      "learnrisk_gateway_requests_total",
      {{"api", "resolve"}, {"namespace", ns}},
      "Successfully answered gateway requests");
  m.resolve_record_requests = metric_registry_.Counter(
      "learnrisk_gateway_requests_total",
      {{"api", "resolve_record"}, {"namespace", ns}},
      "Successfully answered gateway requests");
  m.pairs_scored =
      metric_registry_.Counter("learnrisk_gateway_pairs_scored_total",
                               ns_labels, "Candidate pairs risk-scored");
  m.records_added = metric_registry_.Counter(
      "learnrisk_gateway_records_added_total", ns_labels,
      "Records appended online via AddRecord");
  m.recoveries = metric_registry_.Counter(
      "learnrisk_gateway_recoveries_total", ns_labels,
      "Successful RecoverNamespace calls");
  m.recovered_wal_entries = metric_registry_.Counter(
      "learnrisk_gateway_recovered_wal_entries_total", ns_labels,
      "WAL tail entries replayed during recovery");
  m.recovered_wal_bytes_discarded = metric_registry_.Counter(
      "learnrisk_gateway_recovered_wal_bytes_discarded_total", ns_labels,
      "Torn or corrupt WAL tail bytes truncated during recovery");
  m.checkpoint_latency = metric_registry_.Latency(
      "learnrisk_gateway_checkpoint_latency_seconds", ns_labels,
      "Full checkpoint wall time (segments, model, manifest swap)");
  m.recover_latency = metric_registry_.Latency(
      "learnrisk_gateway_recover_latency_seconds", ns_labels,
      "Full namespace recovery wall time (load, replay, rebuild)");
  m.risk_scores =
      metric_registry_.Values("learnrisk_gateway_risk_score", ns_labels,
                              "Distribution of served risk scores");
  m.durability.wal_appends = metric_registry_.Counter(
      "learnrisk_gateway_wal_appends_total", ns_labels,
      "Acknowledged WAL record appends");
  m.durability.wal_append_bytes = metric_registry_.Counter(
      "learnrisk_gateway_wal_append_bytes_total", ns_labels,
      "WAL frame bytes written");
  m.durability.wal_fsyncs = metric_registry_.Counter(
      "learnrisk_gateway_wal_fsyncs_total", ns_labels,
      "fsync calls on the active WAL (fsync_appends mode)");
  m.durability.checkpoints = metric_registry_.Counter(
      "learnrisk_gateway_checkpoints_total", ns_labels,
      "Committed checkpoints (manifest swapped)");
  m.durability.checkpoint_bytes = metric_registry_.Counter(
      "learnrisk_gateway_checkpoint_bytes_total", ns_labels,
      "Checkpoint segment bytes written");
  m.durability.checkpoint_records = metric_registry_.Counter(
      "learnrisk_gateway_checkpoint_records_total", ns_labels,
      "Records across written checkpoint segments");
  return m;
}

void Gateway::RegisterStateGauges(
    const std::string& ns, const std::shared_ptr<NamespaceState>& state) {
  // Every gauge reads the namespace through a weak_ptr, so it outlives
  // nothing, and reads 0 once the state is gone.
  auto gauge = [this, weak = std::weak_ptr<NamespaceState>(state)](
                   const std::string& name, MetricLabels labels,
                   const std::string& help,
                   std::function<int64_t(const NamespaceState&)> read) {
    metric_registry_.GaugeCallback(
        name, std::move(labels), help,
        [weak, read = std::move(read)]() -> int64_t {
          const std::shared_ptr<NamespaceState> s = weak.lock();
          return s == nullptr ? 0 : read(*s);
        });
  };
  std::vector<std::pair<BlockingSide, std::string>> sides = {
      {BlockingSide::kLeft, "left"}};
  if (!state->dedup) sides.emplace_back(BlockingSide::kRight, "right");
  // Record-count gauges report the namespace total (sum over shards);
  // sharded namespaces additionally expose a per-shard family, kept
  // separate so Prometheus sums over either family stay correct.
  for (const auto& [side, side_label] : sides) {
    gauge("learnrisk_gateway_records",
          {{"namespace", ns}, {"side", side_label}},
          "Records visible in the namespace's current snapshot",
          [side = side](const NamespaceState& s) {
            return static_cast<int64_t>(RecordCount(s, side));
          });
    gauge("learnrisk_gateway_prepared_bytes",
          {{"namespace", ns}, {"side", side_label}},
          "Bytes the prepared featurization caches hold for the records "
          "visible in the namespace's current snapshot",
          [side = side](const NamespaceState& s) {
            return static_cast<int64_t>(PreparedBytes(s, side));
          });
    if (state->shards.size() == 1) continue;
    for (size_t k = 0; k < state->shards.size(); ++k) {
      gauge("learnrisk_gateway_shard_records",
            {{"namespace", ns}, {"shard", std::to_string(k)},
             {"side", side_label}},
            "Records visible in one shard's current snapshot",
            [k, side = side](const NamespaceState& s) {
              return static_cast<int64_t>(RecordCount(*s.shards[k], side));
            });
    }
  }
  if (state->review != nullptr) {
    gauge("learnrisk_gateway_review_queue_depth", {{"namespace", ns}},
          "Resident (drainable) pairs in the namespace's review queue",
          [](const NamespaceState& s) {
            return static_cast<int64_t>(s.review->depth());
          });
    gauge("learnrisk_gateway_review_outstanding", {{"namespace", ns}},
          "Drained review pairs awaiting a label",
          [](const NamespaceState& s) {
            return static_cast<int64_t>(s.review->outstanding());
          });
  }
  if (!options_.durability.dir.empty()) {
    gauge("learnrisk_gateway_wal_entries_since_checkpoint",
          {{"namespace", ns}},
          "WAL entries appended since the namespace's last checkpoint "
          "(sharded: summed over the per-shard WALs)",
          [](const NamespaceState& s) {
            return static_cast<int64_t>(WalBacklog(s));
          });
  }
  if (!state->metrics.feature_values.empty()) {
    // Per-column drift divergence, computed at snapshot time from the live
    // feature histograms vs the baseline of the snapshot the namespace
    // serves. Reads 0 while that snapshot carries no baseline
    // (docs/TRACING.md).
    const char* psi_help =
        "PSI (micro-units) of the live distribution vs the published model's "
        "training baseline";
    const std::vector<std::string>& columns = state->pipeline.metric_names();
    const size_t num_columns =
        std::min(columns.size(), state->metrics.feature_values.size());
    for (size_t c = 0; c < num_columns; ++c) {
      gauge("learnrisk_gateway_drift_psi_micros",
            {{"column", columns[c]}, {"namespace", ns}}, psi_help,
            [this, ns, c](const NamespaceState& s) -> int64_t {
              const std::shared_ptr<const DriftBaseline> baseline =
                  ServedDriftBaseline(ns);
              if (baseline == nullptr || c >= baseline->columns().size()) {
                return 0;
              }
              return PsiMicros(baseline->columns()[c],
                               s.metrics.feature_values[c]->Snapshot());
            });
    }
    if (state->metrics.risk_scores != nullptr) {
      gauge("learnrisk_gateway_drift_psi_micros",
            {{"column", "risk_score"}, {"namespace", ns}}, psi_help,
            [this, ns](const NamespaceState& s) -> int64_t {
              const std::shared_ptr<const DriftBaseline> baseline =
                  ServedDriftBaseline(ns);
              if (baseline == nullptr || !baseline->has_risk()) return 0;
              return PsiMicros(baseline->risk(),
                               s.metrics.risk_scores->Snapshot());
            });
    }
    gauge("learnrisk_gateway_drift_columns_alerted", {{"namespace", ns}},
          "Metric columns whose PSI vs the training baseline is at or above "
          "0.2",
          [this, ns](const NamespaceState& s) -> int64_t {
            const std::shared_ptr<const DriftBaseline> baseline =
                ServedDriftBaseline(ns);
            if (baseline == nullptr) return 0;
            int64_t alerted = 0;
            const size_t n = std::min(baseline->columns().size(),
                                      s.metrics.feature_values.size());
            for (size_t c = 0; c < n; ++c) {
              if (Psi(baseline->columns()[c],
                      s.metrics.feature_values[c]->Snapshot()) >=
                  kDriftAlertPsi) {
                ++alerted;
              }
            }
            return alerted;
          });
  }
}

Result<Gateway::ServedModel> Gateway::Served(const std::string& ns) {
  // The registry only knows a namespace once its first publish has begun;
  // until that publish swaps its snapshot in, the engine serves nothing.
  ServedModel served;
  Result<std::shared_ptr<ServingEngine>> engine = registry_.Engine(ns);
  if (engine.ok()) {
    served.engine = engine.MoveValueOrDie();
    std::tie(served.version, served.snapshot) =
        served.engine->VersionedSnapshot();
  }
  if (served.snapshot == nullptr) {
    return Status::FailedPrecondition("no model published for namespace '" +
                                      ns + "'");
  }
  return served;
}

std::shared_ptr<const DriftBaseline> Gateway::ServedDriftBaseline(
    const std::string& ns) {
  const Result<ServedModel> served = Served(ns);
  return served.ok() ? served->snapshot->drift_baseline() : nullptr;
}

Status Gateway::RegisterNamespace(const std::string& ns, NamespaceSpec spec) {
  if (spec.left == nullptr) {
    return Status::InvalidArgument("namespace spec has no left table");
  }
  const bool dedup = spec.right == nullptr || spec.right == spec.left;
  if (!dedup && !spec.left->schema().Equals(spec.right->schema())) {
    return Status::InvalidArgument(
        "left and right tables have different schemas");
  }
  LEARNRISK_RETURN_NOT_OK(
      CheckNewNamespace(ns, spec, spec.left->schema(), "namespace"));

  // Split the base tables round-robin by global id (record i -> shard
  // i % S at local index i / S, so global ids equal the table indices
  // exactly — the invariant every cross-shard merge relies on). S == 1
  // skips the copy and builds straight from the spec's tables.
  const size_t num_shards = std::max<size_t>(spec.shards, 1);
  std::vector<std::pair<const Table*, const Table*>> tables = {
      {spec.left.get(), spec.right.get()}};
  std::vector<Table> parts;
  if (num_shards > 1) {
    tables.clear();
    parts.reserve(2 * num_shards);  // `tables` points into it
    for (size_t k = 0; k < num_shards; ++k) {
      Result<Table> left = ShardSubTable(*spec.left, k, num_shards);
      if (!left.ok()) return left.status();
      parts.push_back(left.MoveValueOrDie());
      tables.emplace_back(&parts.back(), nullptr);
      if (!dedup) {
        Result<Table> right = ShardSubTable(*spec.right, k, num_shards);
        if (!right.ok()) return right.status();
        parts.push_back(right.MoveValueOrDie());
        tables.back().second = &parts.back();
      }
    }
  }
  Result<std::shared_ptr<NamespaceState>> built = BuildState(
      ns, spec.left->schema(), dedup,
      FeaturePipeline(std::move(spec.suite), std::move(spec.classifier),
                      std::move(spec.classifier_columns)),
      spec.blocking, tables);
  if (!built.ok()) return built.status();
  const std::shared_ptr<NamespaceState> state = built.MoveValueOrDie();

  if (!options_.durability.dir.empty()) {
    // Durable registration: commit the base tables as checkpoint 1 of every
    // shard before the namespace serves anything, so a crash at any later
    // point can recover at least the registered state. Fails (leaving the
    // gateway unchanged) if committed durable state for the name already
    // exists — that state must be recovered, not silently overwritten.
    const DurabilityOptions& durability = options_.durability;
    const DurabilityOptions shard_opts = ShardDurability(durability, ns);
    Result<size_t> prior_shards = ReadShardsFile(durability, ns);
    if (prior_shards.ok()) {
      // Every shard manifest committed = a complete namespace; anything
      // less is debris from an interrupted registration (never
      // acknowledged) and is cleared below. A different count is refused
      // either way: a bogus count cannot be told apart from debris.
      bool committed = true;
      for (size_t k = 0; k < *prior_shards && committed; ++k) {
        committed = NamespaceLog::Exists(shard_opts.dir, ShardLogName(k));
      }
      if (committed || *prior_shards != num_shards) {
        return Status::FailedPrecondition(
            "durable state already exists for namespace '" + ns + "' (" +
            std::to_string(*prior_shards) +
            " shards); recover it instead of re-registering");
      }
    } else if (!prior_shards.status().IsNotFound()) {
      return prior_shards.status();
    }
    std::error_code ec;
    std::filesystem::remove_all(shard_opts.dir, ec);
    std::filesystem::create_directories(durability.dir + "/" + ns, ec);
    if (ec) {
      return Status::IOError("cannot create namespace directory for '" + ns +
                             "': " + ec.message());
    }
    // The SHARDS marker lands before any shard log so recovery (and the
    // debris detection above) always knows the intended layout.
    LEARNRISK_RETURN_NOT_OK(
        WriteShardsFile(ShardsFilePath(durability, ns), num_shards));
    for (size_t k = 0; k < num_shards; ++k) {
      Result<std::unique_ptr<NamespaceLog>> log =
          NamespaceLog::Create(shard_opts, ShardLogName(k));
      if (!log.ok()) return log.status();
      Shard& shard = *state->shards[k];
      shard.log = log.MoveValueOrDie();
      shard.log->set_metrics(state->metrics.durability);
      TraceSpan span(state->metrics.checkpoint_latency);
      LEARNRISK_RETURN_NOT_OK(shard.log->WriteCheckpoint(
          *tables[k].first, dedup ? nullptr : tables[k].second, 0, nullptr));
    }
  }
  return Install(ns, state);
}

Result<std::shared_ptr<Gateway::NamespaceState>> Gateway::BuildState(
    const std::string& ns, Schema schema, bool dedup,
    FeaturePipeline pipeline, const BlockingConfig& blocking,
    const std::vector<std::pair<const Table*, const Table*>>& tables) {
  auto state = std::make_shared<NamespaceState>();
  state->dedup = dedup;
  state->schema = std::move(schema);
  state->pipeline = std::move(pipeline);
  state->pipeline.set_parallelism(options_.request_parallelism);
  // Each shard's base snapshot owns segment copies of its tables, so
  // AddRecord can grow the namespace online without touching the caller's
  // tables. Writer routing starts at each shard's size.
  for (const auto& [left_table, right_table] : tables) {
    const Table& left = *left_table;
    const Table& right = dedup ? left : *right_table;
    Result<BlockingIndex> index = BlockingIndex::Build(left, right, blocking);
    if (!index.ok()) return index.status();
    auto snapshot = std::make_shared<NamespaceSnapshot>();
    snapshot->index = index.MoveValueOrDie();
    snapshot->left = SideStore::Build(left, state->pipeline.suite());
    if (!dedup) {
      snapshot->right = SideStore::Build(right, state->pipeline.suite());
    }
    auto shard = std::make_unique<Shard>();
    // The first snapshot is in place before the state becomes visible in
    // the map; no reader can observe a null snapshot.
    shard->snapshot = std::move(snapshot);
    state->shards.push_back(std::move(shard));
    state->routed_left.push_back(left.num_records());
    state->routed_right.push_back(dedup ? 0 : right.num_records());
  }
  // Instruments are get-or-create, so a build that loses the Install race
  // simply shares the winner's instruments — nothing leaks.
  if (options_.enable_metrics) {
    state->metrics = CreateNamespaceMetrics(ns, state->pipeline.metric_names());
  }
  if (options_.review.enabled) {
    state->review =
        std::make_shared<ReviewQueue>(options_.review.queue_capacity);
  }
  return state;
}

Status Gateway::Install(const std::string& ns,
                        const std::shared_ptr<NamespaceState>& state) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!namespaces_.emplace(ns, state).second) {
      return Status::FailedPrecondition("namespace '" + ns +
                                        "' already registered");
    }
  }
  if (options_.enable_metrics) RegisterStateGauges(ns, state);
  return Status::OK();
}

bool Gateway::HasNamespace(const std::string& ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  return namespaces_.count(ns) > 0;
}

std::vector<std::string> Gateway::Namespaces() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(namespaces_.size());
  for (const auto& [ns, state] : namespaces_) names.push_back(ns);
  return names;
}

Result<uint64_t> Gateway::Publish(
    const std::string& ns, RiskModel model,
    std::shared_ptr<const DriftBaseline> drift_baseline) {
  Result<std::shared_ptr<NamespaceState>> state = State(ns);
  if (!state.ok()) return state.status();
  return registry_.Publish(ns, std::move(model), std::move(drift_baseline));
}

std::vector<std::shared_ptr<const RequestTrace>> Gateway::RecentTraces()
    const {
  if (traces_ == nullptr) return {};
  return traces_->Snapshot();
}

Status Gateway::CheckMode(Mode mode) const {
  if (mode == Mode::kReview && !options_.review.enabled) {
    return Status::FailedPrecondition("review is not enabled on this gateway");
  }
  if (mode == Mode::kDurable && options_.durability.dir.empty()) {
    return Status::FailedPrecondition(
        "durability is not enabled on this gateway");
  }
  return Status::OK();
}

Result<std::shared_ptr<Gateway::NamespaceState>> Gateway::State(
    const std::string& ns, Mode mode) const {
  std::shared_ptr<NamespaceState> state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = namespaces_.find(ns);
    if (it == namespaces_.end()) {
      return Status::NotFound("unknown namespace '" + ns + "'");
    }
    state = it->second;
  }
  LEARNRISK_RETURN_NOT_OK(CheckMode(mode));
  return state;
}

std::shared_ptr<const Gateway::NamespaceSnapshot> Gateway::LoadShardSnapshot(
    const Shard& shard) {
  return std::atomic_load_explicit(&shard.snapshot,
                                   std::memory_order_acquire);
}

size_t Gateway::RecordCount(const Shard& shard, BlockingSide side) {
  return LoadShardSnapshot(shard)->index.num_records(side);
}

size_t Gateway::RecordCount(const NamespaceState& s, BlockingSide side) {
  size_t total = 0;
  for (const auto& shard : s.shards) total += RecordCount(*shard, side);
  return total;
}

size_t Gateway::PreparedBytes(const NamespaceState& s, BlockingSide side) {
  size_t total = 0;
  for (const auto& shard : s.shards) {
    const std::shared_ptr<const NamespaceSnapshot> snap =
        LoadShardSnapshot(*shard);
    total += (side == BlockingSide::kLeft ? snap->left : s.right_store(*snap))
                 .prepared_bytes();
  }
  return total;
}

size_t Gateway::WalBacklog(const NamespaceState& s) {
  size_t total = 0;
  for (const auto& shard : s.shards) {
    std::lock_guard<std::mutex> writer(shard->writer_mu);
    total += shard->log->wal_entries_since_checkpoint();
  }
  return total;
}

Gateway::PinnedView Gateway::Pin(const NamespaceState& state) {
  const size_t num_shards = state.shards.size();
  PinnedView view;
  std::vector<const SideStore*> left;
  std::vector<const SideStore*> right;
  view.snaps.reserve(num_shards);
  view.indexes.reserve(num_shards);
  left.reserve(num_shards);
  right.reserve(num_shards);
  for (const auto& shard : state.shards) {
    view.snaps.push_back(LoadShardSnapshot(*shard));
    const NamespaceSnapshot& snap = *view.snaps.back();
    view.indexes.push_back(&snap.index);
    left.push_back(&snap.left);
    right.push_back(&state.right_store(snap));
  }
  view.left = ShardedSideView(std::move(left));
  view.right = ShardedSideView(std::move(right));
  return view;
}

size_t Gateway::RouteShard(NamespaceState& state, BlockingSide side) {
  std::lock_guard<std::mutex> lock(state.route_mu);
  // Least-loaded shard, lowest index on ties. For sequential adds this
  // reproduces the unsharded global id sequence exactly: after n records a
  // side's counts are the balanced split of n, and the minimum sits at
  // shard n % S — precisely where global id n lives.
  std::vector<size_t>& counts =
      (state.dedup || side == BlockingSide::kLeft) ? state.routed_left
                                                   : state.routed_right;
  size_t best = 0;
  for (size_t k = 1; k < counts.size(); ++k) {
    if (counts[k] < counts[best]) best = k;
  }
  ++counts[best];
  return best;
}

Status Gateway::ServeBatch(const std::string& ns, NamespaceState& s,
                           RequestScope& scope, const PairKeys& keys,
                           const TilePassRunner& run_pass, double prepare_ms,
                           size_t explain_top_k, ShardedCounter* requests,
                           ScoreResponse* scores) {
  // One snapshot is pinned for the whole request: every tile scores against
  // it, whatever publishes land meanwhile. Without one (before the first
  // publish) the pass still featurizes and classifies, so the request fails
  // at scoring exactly as a whole-matrix pass would.
  const Result<ServedModel> served = Served(ns);
  const ScorerSnapshot* scorer = nullptr;
  if (served.ok()) {
    scorer = served->snapshot.get();
    scores->model_version = served->version;
  }
  const size_t n = keys.size();
  const size_t cols = s.pipeline.suite().num_metrics();
  const bool scorable =
      scorer != nullptr && cols >= scorer->compiled().min_feature_columns();
  if (scorable) {
    scores->risk.resize(n);
    scores->machine_label.resize(n);
    if (explain_top_k > 0) scores->explanations.resize(n);
  }
  const NamespaceMetrics& m = s.metrics;
  const bool reviewing =
      s.review != nullptr && options_.review.per_request_budget > 0;
  const bool tracing = traces_ != nullptr;
  const size_t top_k =
      std::max(reviewing ? options_.review.per_request_budget : size_t{0},
               tracing ? options_.trace.top_k : size_t{0});
  ServePass pass(scorable ? scorer : nullptr, explain_top_k,
                 m.feature_values.size(), m.risk_scores != nullptr, top_k,
                 cols, n, s.pipeline.TileChunks(n), scores);
  const Result<TilePassTiming> timing =
      run_pass([&pass](size_t chunk, const FeatureTile& tile) {
        pass.Consume(chunk, tile);
      });
  if (!timing.ok()) return timing.status();

  const double busy = timing->featurize_busy_ms + timing->classify_busy_ms +
                      pass.score_busy_ms() + pass.other_busy_ms();
  *scope.Slot(kFeaturize) =
      prepare_ms + SplitWall(timing->wall_ms, timing->featurize_busy_ms, busy);
  *scope.Slot(kClassify) =
      SplitWall(timing->wall_ms, timing->classify_busy_ms, busy);
  if (!served.ok()) return served.status();
  const double score_ms =
      SplitWall(timing->wall_ms, pass.score_busy_ms(), busy);
  *scope.Slot(kRisk) = score_ms;
  // ServingEngine::Score's order: probabilities first, then the width.
  if (pass.invalid_row() != SIZE_MAX) {
    return InvalidProbability(pass.invalid_row());
  }
  if (!scorable) {
    return Status::InvalidArgument(
        "metric_features has fewer columns than the model's rules read");
  }
  served->engine->RecordScored(n, static_cast<uint64_t>(score_ms * 1e6));
  if (m.pairs_scored != nullptr) m.pairs_scored->Add(n);
  pass.FlushDrift(m.feature_values, m.risk_scores);

  const Scored scored{keys, *scores, *scorer, pass.TopRows()};
  if (reviewing) EnqueueReview(ns, s, scope, scored);
  const uint64_t total_ns = scope.Finish();
  if (requests != nullptr) requests->Add(1);
  if (tracing) MaybeCaptureTrace(ns, scope, total_ns, &scored);
  return Status::OK();
}

void Gateway::MaybeCaptureTrace(const std::string& ns,
                                const RequestScope& scope, uint64_t total_ns,
                                const Scored* scored) {
  const TraceOptions& t = options_.trace;
  const bool head_sampled =
      t.sample_every > 0 && scope.request_id() % t.sample_every == 0;
  const bool slow = t.slow_request_ms > 0.0 &&
                    static_cast<double>(total_ns) >= t.slow_request_ms * 1e6;
  double max_risk = 0.0;
  if (scored != nullptr) {
    for (double risk : scored->scores.risk) max_risk = std::max(max_risk, risk);
  }
  const bool high_risk = t.high_risk_threshold >= 0.0 && scored != nullptr &&
                         !scored->scores.risk.empty() &&
                         max_risk >= t.high_risk_threshold;
  if (!head_sampled && !slow && !high_risk) return;

  // From here on the request is captured and allocation is fine — capture
  // is off the common path by construction (1-in-N plus tail triggers).
  auto trace = std::make_shared<RequestTrace>();
  trace->request_id = scope.request_id();
  trace->api = scope.api();
  trace->ns = ns;
  trace->start_ns = scope.start_ns();
  trace->total_ns = total_ns;
  trace->max_risk = max_risk;
  trace->head_sampled = head_sampled;
  trace->slow = slow;
  trace->high_risk = high_risk;
  trace->stages = scope.TraceStages();
  if (scored != nullptr) {
    // The top-k riskiest pairs (ties broken by original order), explained
    // by the snapshot that scored them.
    const ScoreResponse& scores = scored->scores;
    const std::vector<RankedRow>& top = scored->top_risk;
    trace->model_version = scores.model_version;
    trace->candidates = scored->keys.size();
    trace->pairs_scored = scores.risk.size();
    const size_t k = std::min(t.top_k, scores.risk.size());
    trace->top_risky.reserve(k);
    for (size_t rank = 0; rank < k; ++rank) {
      const RankedRow& ranked = top[rank];
      TracedDecision decision;
      decision.left = scored->keys.left(ranked.row);
      decision.right = scored->keys.right(ranked.row);
      decision.risk = ranked.risk;
      decision.classifier_prob = ranked.prob;
      decision.machine_label = scores.machine_label[ranked.row] != 0;
      decision.active_rules =
          scored->scorer.compiled().ActiveRules(ranked.features);
      const std::vector<RiskContribution> contributions =
          scored->scorer.model().Explain(decision.active_rules,
                                         decision.classifier_prob, t.top_k);
      decision.explanation.reserve(contributions.size());
      for (const RiskContribution& c : contributions) {
        decision.explanation.push_back(
            TraceContribution{c.description, c.weight, c.expectation, c.rsd});
      }
      trace->top_risky.push_back(std::move(decision));
    }
  }
  traces_->Push(std::move(trace));
}

void Gateway::EnqueueReview(const std::string& ns, NamespaceState& s,
                            RequestScope& scope, const Scored& scored) {
  const ReviewOptions& r = options_.review;
  TraceSpan span(nullptr, scope.Slot(kReview));
  // Build the offer batch from the shared ranking: its first (riskiest)
  // top-budget decisions.
  const ScoreResponse& scores = scored.scores;
  const size_t cols = s.pipeline.suite().num_metrics();
  std::vector<ReviewItem> items;
  const size_t budget = std::min(r.per_request_budget, scored.top_risk.size());
  items.reserve(budget);
  for (size_t rank = 0; rank < budget; ++rank) {
    const RankedRow& ranked = scored.top_risk[rank];
    ReviewItem item;
    item.left = scored.keys.left(ranked.row);
    item.right = scored.keys.right(ranked.row);
    item.risk = ranked.risk;
    item.classifier_prob = ranked.prob;
    item.machine_label = scores.machine_label[ranked.row] != 0 ? 1 : 0;
    item.model_version = scores.model_version;
    item.request_id = scope.request_id();
    item.features.assign(ranked.features, ranked.features + cols);
    // A risk the queue cannot order is not offered: its frame would end
    // replay at recovery and take every later review event with it.
    if (IsOrderableReviewItem(item)) items.push_back(std::move(item));
  }
  if (items.empty()) return;

  // Review mutations serialize on shard 0's writer mutex so the WAL order
  // below equals the apply order; replay then reconstructs the same queue.
  Shard& shard0 = *s.shards[0];
  std::lock_guard<std::mutex> writer(shard0.writer_mu);
  for (size_t begin = 0; begin < items.size();
       begin += kMaxReviewEventsPerFrame) {
    const size_t end =
        std::min(items.size(), begin + kMaxReviewEventsPerFrame);
    if (shard0.log != nullptr) {
      // Write-ahead, one batch frame per chunk: a chunk's offers are
      // applied if and only if its frame is durably appended, so the
      // applied queue never runs ahead of (or behind) the WAL — a crash or
      // IO error mid-request leaves a durable, applied prefix of whole
      // chunks and replay reconstructs exactly it.
      Status append = CommitRequeueLocked(ns, s);
      if (append.ok()) {
        append = shard0.log->AppendReviewBatch(
            ReviewWalEvent::Kind::kOffer, &items[begin], end - begin);
      }
      if (!append.ok()) {
        // The offer is feedback-loop observability, not the serving answer:
        // absorb the IO error — count it, skip the request's remaining
        // chunks — rather than failing the resolve.
        if (s.metrics.review_log_failures != nullptr) {
          s.metrics.review_log_failures->Add(1);
        }
        return;
      }
    }
    for (size_t i = begin; i < end; ++i) {
      switch (s.review->Offer(std::move(items[i]))) {
        case ReviewQueue::Offered::kAdmitted:
          if (s.metrics.review_enqueued != nullptr) {
            s.metrics.review_enqueued->Add(1);
          }
          break;
        case ReviewQueue::Offered::kMerged:
          if (s.metrics.review_merged != nullptr) {
            s.metrics.review_merged->Add(1);
          }
          break;
        case ReviewQueue::Offered::kDropped:
          if (s.metrics.review_dropped != nullptr) {
            s.metrics.review_dropped->Add(1);
          }
          break;
      }
    }
  }
}

Result<std::vector<ReviewItem>> Gateway::DrainReview(const std::string& ns,
                                                     size_t max_items) {
  Result<std::shared_ptr<NamespaceState>> state = State(ns, Mode::kReview);
  if (!state.ok()) return state.status();
  NamespaceState& s = **state;
  Shard& shard0 = *s.shards[0];
  std::lock_guard<std::mutex> writer(shard0.writer_mu);
  size_t durable = max_items;
  if (shard0.log != nullptr) {
    // Write-ahead: log the drains, in batch frames, *before* mutating the
    // queue. The writer mutex keeps other review mutations out, so the peek
    // below is exactly what DrainTop will remove. Like an offer chunk, a
    // drain is applied if and only if its frame is durable: an append
    // failure drains (and hands out) exactly the frames before it, and
    // fails the call only when no frame was written, queue untouched.
    LEARNRISK_RETURN_NOT_OK(CommitRequeueLocked(ns, s));
    const std::vector<ReviewItem> peeked = s.review->PeekTop(max_items);
    for (durable = 0; durable < peeked.size();) {
      const size_t count =
          std::min(peeked.size() - durable, kMaxReviewEventsPerFrame);
      const Status append = shard0.log->AppendReviewBatch(
          ReviewWalEvent::Kind::kDrain, &peeked[durable], count);
      if (!append.ok() && durable == 0) return append;
      if (!append.ok()) {
        if (s.metrics.review_log_failures != nullptr) {
          s.metrics.review_log_failures->Add(1);
        }
        break;
      }
      durable += count;
    }
  }
  std::vector<ReviewItem> items = s.review->DrainTop(durable);
  if (s.metrics.review_drained != nullptr && !items.empty()) {
    s.metrics.review_drained->Add(items.size());
  }
  return items;
}

Status Gateway::SubmitReviewLabel(const std::string& ns, int64_t left,
                                  int64_t right, uint8_t truth) {
  Result<std::shared_ptr<NamespaceState>> state = State(ns, Mode::kReview);
  if (!state.ok()) return state.status();
  NamespaceState& s = **state;
  if (truth > 1) {
    return Status::InvalidArgument("review label truth must be 0 or 1, got " +
                                   std::to_string(truth));
  }
  Shard& shard0 = *s.shards[0];
  std::lock_guard<std::mutex> writer(shard0.writer_mu);
  // Validate first so the NotFound path never writes a frame, then log,
  // then apply: the label mutates the in-memory queue only once it is
  // durable, so an append failure leaves the pair still labelable (the
  // caller can retry) and an acked label is never lost across a crash
  // (tests/gateway_crash_recovery_test.cc). The writer mutex holds off
  // every other review mutation between the check and the apply.
  if (!s.review->CanLabel(left, right)) {
    return Status::NotFound("pair (" + std::to_string(left) + ", " +
                            std::to_string(right) +
                            ") is not awaiting a review label");
  }
  if (shard0.log != nullptr) {
    LEARNRISK_RETURN_NOT_OK(CommitRequeueLocked(ns, s));
    ReviewWalEvent event;
    event.kind = ReviewWalEvent::Kind::kLabel;
    event.item.left = left;
    event.item.right = right;
    event.truth = truth;
    LEARNRISK_RETURN_NOT_OK(shard0.log->AppendReview(event));
  }
  if (!s.review->Label(left, right, truth)) {
    return Status::Internal("review label for (" + std::to_string(left) +
                            ", " + std::to_string(right) +
                            ") validated but failed to apply");
  }
  if (s.metrics.review_labels != nullptr) s.metrics.review_labels->Add(1);
  return Status::OK();
}

Result<ReviewRetrainResult> Gateway::RetrainFromReview(
    const std::string& ns, const ReviewRetrainOptions& options) {
  Result<std::shared_ptr<NamespaceState>> state = State(ns, Mode::kReview);
  if (!state.ok()) return state.status();
  NamespaceState& s = **state;
  const std::vector<LabeledReview> labels = s.review->Labeled();
  if (labels.size() < kMinReviewLabels) {
    return Status::FailedPrecondition(
        "namespace '" + ns + "' holds " + std::to_string(labels.size()) +
        " review labels; RetrainFromReview needs at least " +
        std::to_string(kMinReviewLabels));
  }
  // Seed from the serving snapshot: the retrain is incremental, tuning the
  // live parameters rather than refitting from the prior.
  const Result<ServedModel> served = Served(ns);
  if (!served.ok()) return served.status();

  ReviewRetrainResult result;
  Timer train_timer;
  Result<IncrementalRetrainOutput> retrained =
      RetrainFromLabels(served->snapshot->model(), labels, options.retrain);
  if (!retrained.ok()) return retrained.status();
  result.train_ms = train_timer.ElapsedMillis();
  RecordMs(s.metrics.retrain_latency, result.train_ms);
  result.labels_used = retrained->labels_used;
  result.mislabeled = retrained->mislabeled;
  result.loss_history = std::move(retrained->loss_history);

  Timer publish_timer;
  // The label batch's feature rows are the freshest labeled sample of the
  // live distribution — they become the new drift reference, scored by the
  // *retrained* model.
  retrained->features.column_names = s.pipeline.metric_names();
  auto baseline = std::make_shared<DriftBaseline>(DriftBaseline::FromTraining(
      retrained->features, retrained->risk_scores));
  Result<uint64_t> version =
      Publish(ns, std::move(retrained->model), std::move(baseline));
  if (!version.ok()) return version.status();
  result.model_version = *version;
  if (!options_.durability.dir.empty()) {
    // Commit the new version to the manifest so a crash after this call
    // recovers the retrained model, not the one it replaced.
    LEARNRISK_RETURN_NOT_OK(Checkpoint(ns));
  }
  result.publish_ms = publish_timer.ElapsedMillis();
  RecordMs(s.metrics.retrain_publish_latency, result.publish_ms);
  if (s.metrics.review_retrains != nullptr) s.metrics.review_retrains->Add(1);
  return result;
}

Result<ReviewQueueStats> Gateway::ReviewStats(const std::string& ns) const {
  Result<std::shared_ptr<NamespaceState>> state = State(ns, Mode::kReview);
  if (!state.ok()) return state.status();
  return (*state)->review->Stats();
}

Result<ResolveResponse> Gateway::Resolve(const std::string& ns,
                                         const ResolveRequest& request) {
  Result<std::shared_ptr<NamespaceState>> state = State(ns);
  if (!state.ok()) return state.status();
  if (request.block_all && !request.pairs.empty()) {
    return Status::InvalidArgument(
        "ResolveRequest has both explicit pairs and block_all");
  }
  if (!request.block_all && request.pairs.empty()) {
    return Status::InvalidArgument(
        "empty ResolveRequest: provide pairs or set block_all");
  }

  NamespaceState& s = **state;
  // One acquire load per shard pins the whole request to a frozen view;
  // writers publish successors without ever touching it.
  const PinnedView view = Pin(s);
  ResolveResponse response;
  response.request_id = NextRequestId();
  RequestScope scope("resolve", response.request_id, traces_ != nullptr,
                     s.metrics.resolve_latency, s.metrics, &response.timing);
  {
    // The cross-shard merge phase is a sub-span of the blocking stage,
    // surfaced separately so shard overhead is attributable.
    double* merge_ms =
        view.indexes.size() > 1 ? scope.Slot(kShardMerge) : nullptr;
    TraceSpan block(nullptr, scope.Slot(kBlock));
    response.pairs = request.block_all
                         ? MergedAllCandidates(view.indexes, merge_ms)
                         : request.pairs;
  }
  LEARNRISK_RETURN_NOT_OK(ServeBatch(
      ns, s, scope, PairKeys(response.pairs),
      [&](const TileFn& on_tile) {
        return s.pipeline.RunPreparedTiles(view.left, view.right,
                                           response.pairs, on_tile);
      },
      0.0, request.explain_top_k, s.metrics.resolve_requests,
      &response.scores));
  return response;
}

Result<ProbeResponse> Gateway::ResolveRecord(const std::string& ns,
                                             const Record& probe,
                                             size_t explain_top_k) {
  Result<std::shared_ptr<NamespaceState>> state = State(ns);
  if (!state.ok()) return state.status();
  NamespaceState& s = **state;
  if (probe.values.size() != s.schema.num_attributes()) {
    return Status::InvalidArgument(
        "probe record width does not match the namespace schema");
  }
  const PinnedView view = Pin(s);
  ProbeResponse response;
  response.request_id = NextRequestId();
  RequestScope scope("resolve_record", response.request_id,
                     traces_ != nullptr, s.metrics.resolve_record_latency,
                     s.metrics, &response.timing);
  {
    double* merge_ms =
        view.indexes.size() > 1 ? scope.Slot(kShardMerge) : nullptr;
    TraceSpan block(nullptr, scope.Slot(kBlock));
    response.candidates = MergedCandidates(
        view.indexes, probe,
        s.dedup ? BlockingSide::kLeft : BlockingSide::kRight, merge_ms);
  }
  // Probe preparation counts toward the featurize stage: it is the same
  // per-record work the prepared cache amortizes for stored records.
  Timer timer;
  const PreparedRecord prepared_probe = s.pipeline.Prepare(probe);
  const double prepare_ms = timer.ElapsedMillis();
  // The probe's target is the right view (the left side itself when dedup).
  LEARNRISK_RETURN_NOT_OK(ServeBatch(
      ns, s, scope, PairKeys(response.candidates),
      [&](const TileFn& on_tile) {
        return s.pipeline.RunProbePreparedTiles(
            prepared_probe, view.right, response.candidates, on_tile);
      },
      prepare_ms, explain_top_k, s.metrics.resolve_record_requests,
      &response.scores));
  return response;
}

Status Gateway::AddRecord(const std::string& ns, BlockingSide side,
                          Record record, int64_t entity_id,
                          StageTiming* timing) {
  StageTiming local_timing;
  if (timing == nullptr) {
    timing = &local_timing;
  } else {
    *timing = StageTiming{};
  }
  Result<std::shared_ptr<NamespaceState>> state = State(ns);
  if (!state.ok()) return state.status();
  NamespaceState& s = **state;
  if (record.values.size() != s.schema.num_attributes()) {
    return Status::InvalidArgument(
        "record width does not match the namespace schema");
  }
  // AddRecord has no latency histogram of its own; the trace's total is
  // the sum of its measured stages plus the bookkeeping around them.
  RequestScope scope("add_record", NextRequestId(), traces_ != nullptr,
                     /*latency=*/nullptr, s.metrics, timing);
  // Route to the owning shard (always shard 0 when unsharded), then
  // serialize only with that shard's writers; readers keep serving the
  // current snapshots throughout, and writers to sibling shards proceed in
  // parallel. The successor snapshot shares every existing segment —
  // building it touches only the new tail.
  Shard& shard = *s.shards[RouteShard(s, side)];
  std::lock_guard<std::mutex> writer(shard.writer_mu);
  if (shard.log != nullptr) {
    // Write-ahead: the record hits the WAL (flushed) before any reader can
    // see it, so every acknowledged AddRecord survives a crash. A crash
    // after this append but before the return below leaves a durable but
    // unacknowledged record — recovery may legitimately hold one more
    // record than the caller saw acknowledged.
    WalEntry entry;
    entry.side = side;
    entry.entity_id = entity_id;
    entry.record = record;
    TraceSpan span(nullptr, scope.Slot(kWalAppend));
    LEARNRISK_RETURN_NOT_OK(shard.log->Append(entry));
  }
  TraceSpan publish_span(nullptr, scope.Slot(kPublish));
  const std::shared_ptr<const NamespaceSnapshot> cur = LoadShardSnapshot(shard);
  auto next = std::make_shared<NamespaceSnapshot>();
  next->index = cur->index;  // shares posting segments
  LEARNRISK_RETURN_NOT_OK(next->index.AddRecord(side, record, entity_id));
  const bool to_left = s.dedup || side == BlockingSide::kLeft;
  next->left = to_left ? cur->left.WithAppended(std::move(record), entity_id,
                                                s.pipeline.suite())
                       : cur->left;
  if (!s.dedup) {
    next->right = to_left ? cur->right
                          : cur->right.WithAppended(std::move(record),
                                                    entity_id,
                                                    s.pipeline.suite());
  }
  // Single publication point: readers see the shard fully without the
  // record (old snapshot) or fully with it (this one), never in between.
  std::atomic_store_explicit(&shard.snapshot,
                             std::shared_ptr<const NamespaceSnapshot>(next),
                             std::memory_order_release);
  publish_span.Stop();
  if (s.metrics.records_added != nullptr) s.metrics.records_added->Add(1);
  const uint64_t total_ns = scope.Finish();
  if (traces_ != nullptr) MaybeCaptureTrace(ns, scope, total_ns, nullptr);
  if (shard.log != nullptr &&
      options_.durability.wal_checkpoint_threshold > 0 &&
      shard.log->wal_entries_since_checkpoint() >=
          options_.durability.wal_checkpoint_threshold) {
    // The record is already published and durable; a checkpoint failure
    // here fails the call without retracting it (the WAL still covers it).
    // The threshold applies per shard — each shard's WAL/checkpoint cycle
    // is independent.
    LEARNRISK_RETURN_NOT_OK(CheckpointLocked(ns, s, shard));
  }
  return Status::OK();
}

Status Gateway::CheckpointLocked(const std::string& ns, NamespaceState& s,
                                 Shard& shard) {
  TraceSpan span(s.metrics.checkpoint_latency);
  // Materialize the shard's current snapshot under its writer_mu: no new
  // record can land between the tables written to disk and the WAL the
  // checkpoint resets, so checkpoint + empty WAL is exactly the published
  // shard state.
  const std::shared_ptr<const NamespaceSnapshot> snap =
      LoadShardSnapshot(shard);
  const Table left = snap->left.Materialize(s.schema);
  Table right;
  if (!s.dedup) right = snap->right.Materialize(s.schema);

  // The served model and the review state are namespace-level and ride on
  // shard 0's log only. Review mutations all serialize on shard 0's
  // writer_mu — held here — so the review snapshot is exactly the state
  // whose WAL events the checkpoint retires.
  uint64_t model_version = 0;
  NamespaceLog::ModelSaver saver;
  ReviewQueue::CheckpointState review_state;
  const ReviewQueue::CheckpointState* review = nullptr;
  if (&shard == s.shards[0].get()) {
    // One consistent read: the saved model file is exactly the version the
    // manifest records, even if a publish lands mid-checkpoint.
    const Result<ServedModel> served = Served(ns);
    if (served.ok()) {
      model_version = served->version;
      saver = [model = served->snapshot](const std::string& path) {
        return SaveRiskModel(model->model(), path);
      };
    }
    if (s.review != nullptr) {
      review_state = s.review->Snapshot();
      review = &review_state;
    }
  }
  LEARNRISK_RETURN_NOT_OK(shard.log->WriteCheckpoint(
      left, s.dedup ? nullptr : &right, model_version, saver, review));
  if (review != nullptr) s.review_requeue_unlogged = false;
  return Status::OK();
}

Status Gateway::CommitRequeueLocked(const std::string& ns, NamespaceState& s) {
  if (!s.review_requeue_unlogged) return Status::OK();
  return CheckpointLocked(ns, s, *s.shards[0]);
}

Status Gateway::Checkpoint(const std::string& ns) {
  Result<std::shared_ptr<NamespaceState>> state = State(ns, Mode::kDurable);
  if (!state.ok()) return state.status();
  NamespaceState& s = **state;
  // Shard by shard: each commit is atomic on its own manifest, and writers
  // to shards not currently checkpointing proceed untouched.
  for (const auto& shard : s.shards) {
    std::lock_guard<std::mutex> writer(shard->writer_mu);
    LEARNRISK_RETURN_NOT_OK(CheckpointLocked(ns, s, *shard));
  }
  return Status::OK();
}

Status Gateway::RecoverNamespace(const std::string& ns,
                                 RecoverNamespaceSpec spec) {
  LEARNRISK_RETURN_NOT_OK(CheckMode(Mode::kDurable));
  LEARNRISK_RETURN_NOT_OK(CheckNewNamespace(ns, spec, spec.schema, "recover"));

  Timer recover_timer;
  Result<size_t> num_shards = ReadShardsFile(options_.durability, ns);
  if (!num_shards.ok()) return num_shards.status();

  // Recover every shard's log up front, then rebuild the snapshots from the
  // recovered tables exactly as registration builds them from a spec's
  // sub-tables — same base-segment bulk load, so every query output is
  // bit-identical to a gateway that added the same records and never
  // crashed. Shards are recovered one at a time, so a bogus SHARDS count
  // stops at the first shard with no committed state.
  const DurabilityOptions shard_opts =
      ShardDurability(options_.durability, ns);
  std::vector<RecoveredNamespace> recovered;
  std::vector<std::unique_ptr<NamespaceLog>> logs;
  for (size_t k = 0; k < *num_shards; ++k) {
    RecoveredNamespace rec;
    Result<std::unique_ptr<NamespaceLog>> log =
        NamespaceLog::Recover(shard_opts, ShardLogName(k), spec.schema, &rec);
    if (!log.ok()) return log.status();
    if (k > 0 && rec.dedup != recovered[0].dedup) {
      return Status::InvalidArgument(
          "shard manifests of namespace '" + ns +
          "' disagree on dedup semantics");
    }
    recovered.push_back(std::move(rec));
    logs.push_back(log.MoveValueOrDie());
  }
  if (NamespaceLog::Exists(shard_opts.dir, ShardLogName(*num_shards))) {
    return Status::IOError("corrupt shard meta file '" +
                           ShardsFilePath(options_.durability, ns) +
                           "': a shard beyond its count has committed state");
  }

  // Writer routing starts at the recovered per-shard sizes; the
  // least-loaded argmin naturally refills shards that recovered uneven.
  std::vector<std::pair<const Table*, const Table*>> tables;
  for (const RecoveredNamespace& rec : recovered) {
    tables.emplace_back(&rec.left, &rec.right);
  }
  Result<std::shared_ptr<NamespaceState>> built = BuildState(
      ns, std::move(spec.schema), recovered[0].dedup,
      FeaturePipeline(std::move(spec.suite), std::move(spec.classifier),
                      std::move(spec.classifier_columns)),
      spec.blocking, tables);
  if (!built.ok()) return built.status();
  const std::shared_ptr<NamespaceState> state = built.MoveValueOrDie();
  for (size_t k = 0; k < logs.size(); ++k) {
    state->shards[k]->log = std::move(logs[k]);
    state->shards[k]->log->set_metrics(state->metrics.durability);
  }
  if (state->review != nullptr) {
    // Rebuild the review queue: seed the checkpointed state (shard 0 owns
    // it) with resident and outstanding items in their original stages —
    // outstanding items do not occupy resident capacity, so replay runs
    // against the exact occupancy the live queue had — then replay the
    // WAL's review events in log order through the live mutations. Every
    // frame in the log was applied live exactly when it became durable, so
    // Offer makes the same admit/displace/drop decisions it made then and
    // every logged drain/label finds its pair. A drain/label that still
    // misses (only a WAL an older build wrote after a drain failed partway)
    // is tolerated and counted. Finally, still-outstanding items fold back
    // into the queue: their reviewer died with the process, and re-draining
    // beats losing them. The requeue is no WAL event; CommitRequeueLocked
    // checkpoints it before the next review event is logged. A checkpoint
    // that files one pair twice is refused rather than served.
    ReviewQueue::CheckpointState& review = recovered[0].review;
    const Status seeded =
        state->review->Seed(std::move(review.queued),
                            std::move(review.outstanding),
                            std::move(review.labeled));
    if (!seeded.ok()) {
      return Status::IOError("corrupt review segment of namespace '" + ns +
                             "': " + seeded.message());
    }
    size_t replay_misses = 0;
    for (ReviewWalEvent& event : recovered[0].review_events) {
      switch (event.kind) {
        case ReviewWalEvent::Kind::kOffer:
          state->review->Offer(std::move(event.item));
          break;
        case ReviewWalEvent::Kind::kDrain:
          if (!state->review->MarkDrained(event.item.left, event.item.right)) {
            ++replay_misses;
          }
          break;
        case ReviewWalEvent::Kind::kLabel:
          if (!state->review->Label(event.item.left, event.item.right,
                                    event.truth)) {
            ++replay_misses;
          }
          break;
      }
    }
    state->review_requeue_unlogged = state->review->outstanding() > 0;
    state->review->RequeueOutstanding();
    if (replay_misses > 0 && state->metrics.review_replay_misses != nullptr) {
      state->metrics.review_replay_misses->Add(replay_misses);
    }
  }

  // Re-publish shard 0's checkpointed model under its recorded version:
  // seeding the floor at version - 1 makes the publish below yield exactly
  // that version, so scores keep reporting the same model_version across
  // the restart.
  if (recovered[0].model_version > 0) {
    Result<RiskModel> model = LoadRiskModel(recovered[0].model_path);
    if (!model.ok()) return model.status();
    registry_.EnsureVersionAtLeast(ns, recovered[0].model_version - 1);
    Result<uint64_t> published = registry_.Publish(ns, model.MoveValueOrDie());
    if (!published.ok()) return published.status();
  }

  LEARNRISK_RETURN_NOT_OK(Install(ns, state));
  if (options_.enable_metrics) {
    RecordMs(state->metrics.recover_latency, recover_timer.ElapsedMillis());
    state->metrics.recoveries->Add(1);
    for (const RecoveredNamespace& rec : recovered) {
      state->metrics.recovered_wal_entries->Add(rec.wal_entries_replayed);
      state->metrics.recovered_wal_bytes_discarded->Add(
          rec.wal_bytes_discarded);
    }
  }
  return Status::OK();
}

Result<size_t> Gateway::WalEntriesSinceCheckpoint(const std::string& ns) {
  Result<std::shared_ptr<NamespaceState>> state = State(ns, Mode::kDurable);
  if (!state.ok()) return state.status();
  return WalBacklog(**state);
}

Result<size_t> Gateway::NumRecords(const std::string& ns,
                                   BlockingSide side) const {
  Result<std::shared_ptr<NamespaceState>> state = State(ns);
  if (!state.ok()) return state.status();
  return RecordCount(**state, side);
}

}  // namespace learnrisk
