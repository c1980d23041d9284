// Copyright 2026 The LearnRisk Authors
// Per-namespace durability for the request gateway: a write-ahead record log
// plus checkpoint/recover of the full namespace state (records, entity ids,
// and the served model version). The full protocol — log framing, checkpoint
// file layout, the atomic manifest swap, recovery invariants, and the crash
// matrix — is documented in docs/DURABILITY.md.
//
// Shape of one log's on-disk state (`<dir>/<ns>/`; the gateway keeps one
// log per shard, at `<durability dir>/<namespace>/shards/s<k>/`):
//   MANIFEST             committed state: checkpoint id, segment files +
//                        record counts, schema fingerprint, model version,
//                        active WAL file; body protected by a CRC32 trailer
//                        and replaced only by an atomic rename
//   ckpt_<id>_left.seg   immutable checkpoint segments (records + entity
//   ckpt_<id>_right.seg  ids, length-prefixed, whole-payload CRC32)
//   model_<id>.model     the served risk model at checkpoint time (model_io;
//                        the gateway saves it on shard 0 only)
//   wal_<id>.log         CRC32-framed record appends and review-queue
//                        events since checkpoint <id>
//
// AddRecord durability: the gateway appends to the WAL *before* publishing
// the successor snapshot, so every acknowledged record is on disk. Recovery
// loads the manifest's checkpoint and replays the WAL tail; a torn or
// corrupt tail entry (partial frame, or a frame whose payload fails its
// checksum) ends the replay and is truncated away — entries behind it were
// never acknowledged with a durable prefix, so dropping them preserves the
// prefix discipline.
//
// Crash injection: every IO sequence point calls the options' CrashHook with
// a named crash point ("wal:mid_append", "checkpoint:mid_manifest", ...).
// When the hook returns true the log abandons the operation exactly there —
// leaving the same partial on-disk bytes a process kill would — and marks
// itself dead (every later call fails), so tests can simulate a crash and
// then "restart" by recovering from the directory
// (tests/gateway_crash_recovery_test.cc).

#ifndef LEARNRISK_GATEWAY_DURABILITY_H_
#define LEARNRISK_GATEWAY_DURABILITY_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/table.h"
#include "gateway/blocking_index.h"
#include "obs/metrics.h"
#include "review/review_queue.h"

namespace learnrisk {

/// \brief Telemetry hooks for one namespace's durability machinery (all
/// optional; see docs/OBSERVABILITY.md). The log records IO volume here —
/// frames, bytes, fsyncs — while latency is timed by the gateway around its
/// calls, so the histogram and StageTiming agree on stage boundaries.
/// Instruments are owned by a MetricRegistry; null pointers disable
/// recording. Set before the first Append / WriteCheckpoint.
struct DurabilityMetrics {
  ShardedCounter* wal_appends = nullptr;        ///< acknowledged WAL frames
  ShardedCounter* wal_append_bytes = nullptr;   ///< WAL frame bytes written
  ShardedCounter* wal_fsyncs = nullptr;         ///< fsyncs on the active WAL
  ShardedCounter* checkpoints = nullptr;        ///< committed checkpoints
  ShardedCounter* checkpoint_bytes = nullptr;   ///< segment bytes written
  ShardedCounter* checkpoint_records = nullptr; ///< records across segments
};

/// \brief Test hook invoked at named IO sequence points ("wal:mid_append",
/// "manifest:before_swap", ...). Returning true simulates a process crash at
/// that point: the operation is abandoned with whatever partial bytes are
/// already on disk and the log goes dead. Null (or always-false) in
/// production.
using CrashHook = std::function<bool(const std::string& point)>;

/// \brief Gateway durability configuration.
struct DurabilityOptions {
  /// Root directory for durable namespace state (one subdirectory per
  /// namespace, created on demand). Empty = durability off: namespaces are
  /// in-memory only and a restart loses online appends.
  std::string dir;
  /// When > 0, the gateway checkpoints a namespace automatically once its
  /// WAL holds this many entries (bounding both WAL growth and recovery
  /// replay time). 0 = manual checkpoints only (Gateway::Checkpoint).
  size_t wal_checkpoint_threshold = 0;
  /// When true, every WAL append fsyncs before being acknowledged (survives
  /// power loss, not just process death). Default off: appends flush to the
  /// OS page cache, which survives a process crash — the failure model the
  /// crash tests exercise — at a fraction of the cost.
  bool fsync_appends = false;
  /// Crash-injection hook; see CrashHook. Null in production.
  CrashHook crash_hook;
};

/// \brief CRC-32 (IEEE 802.3, the zlib polynomial) of a byte range. Exposed
/// so tests can forge and corrupt frames deliberately.
uint32_t Crc32(const void* data, size_t size);

/// \brief Most review events one WAL batch frame carries. Callers split
/// longer batches (a block_all frontier offers thousands of pairs), so a
/// frame stays a few tens of KiB and the encode buffer never grows with the
/// request.
constexpr size_t kMaxReviewEventsPerFrame = 256;

/// \brief One logged record append, exactly the arguments of
/// Gateway::AddRecord.
struct WalEntry {
  BlockingSide side = BlockingSide::kLeft;
  int64_t entity_id = -1;
  Record record;
};

/// \brief One logged review-queue mutation. Offers carry the full item;
/// drains and labels carry only the pair key (plus the truth bit for
/// labels). All three are logged — drains too, because a drain changes the
/// queue's capacity/displacement decisions for every later offer, so replay
/// must reproduce it to reconstruct the same queue (docs/REVIEW.md).
struct ReviewWalEvent {
  enum class Kind { kOffer, kDrain, kLabel };
  Kind kind = Kind::kOffer;
  ReviewItem item;    ///< full payload for offers; key-only for drain/label
  uint8_t truth = 0;  ///< labels only
};

/// \brief Everything recovery reconstructs from a namespace's durable state:
/// the full record state (checkpoint plus replayed WAL tail) and the
/// manifest metadata needed to resume serving.
struct RecoveredNamespace {
  Table left;
  Table right;  ///< unused when dedup
  bool dedup = false;
  uint64_t checkpoint_id = 0;
  /// Version of the model the manifest committed (0 = none was published at
  /// checkpoint time); `model_path` holds its model_io file when > 0.
  uint64_t model_version = 0;
  std::string model_path;
  size_t checkpoint_records = 0;     ///< records loaded from checkpoint segments
  /// Valid WAL tail entries applied: records plus review events (a batch
  /// frame counts once per event it carries).
  size_t wal_entries_replayed = 0;
  size_t wal_bytes_discarded = 0;    ///< torn/corrupt tail bytes truncated
  /// Review-queue state from the checkpoint's review segment (empty when the
  /// manifest has none) plus the review events replayed from the WAL tail,
  /// in log order. Resident and outstanding items are kept separate so the
  /// gateway can seed a ReviewQueue with the exact live occupancy before
  /// replaying the events; queued-but-unlabeled pairs and every acked label
  /// survive a restart.
  ReviewQueue::CheckpointState review;
  std::vector<ReviewWalEvent> review_events;
};

/// \brief The durable write-ahead log + checkpoint state of one namespace.
///
/// Not internally synchronized: the gateway serializes every call on the
/// namespace's writer mutex (readers never touch the log). Once a simulated
/// crash fires, the object is dead — every later call fails with IOError —
/// mirroring a killed process whose state must be recovered from disk. A
/// failed WAL write is rolled back to the last acknowledged frame instead;
/// the log dies only when that rollback fails.
class NamespaceLog {
 public:
  /// \brief Writes the model file of a checkpoint (e.g. a bound
  /// ServingEngine snapshot save). Invoked with the target path.
  using ModelSaver = std::function<Status(const std::string& path)>;

  ~NamespaceLog();
  NamespaceLog(const NamespaceLog&) = delete;
  NamespaceLog& operator=(const NamespaceLog&) = delete;

  /// \brief Creates fresh durable state for a namespace (directory created,
  /// stray files from an interrupted earlier registration removed). Fails
  /// with FailedPrecondition if a committed manifest already exists — that
  /// state belongs to a previous incarnation and must be recovered, not
  /// overwritten. The caller must WriteCheckpoint before the first Append.
  static Result<std::unique_ptr<NamespaceLog>> Create(
      const DurabilityOptions& options, const std::string& ns);

  /// \brief Recovers a namespace's durable state: validates and parses the
  /// manifest, loads the checkpoint segments, replays the WAL tail
  /// (truncating a torn/corrupt tail), and returns a log positioned to
  /// continue appending. `schema` must match the manifest's fingerprint.
  /// NotFound when no committed manifest exists; IOError / InvalidArgument
  /// with a diagnostic message on missing or corrupt files.
  static Result<std::unique_ptr<NamespaceLog>> Recover(
      const DurabilityOptions& options, const std::string& ns,
      const Schema& schema, RecoveredNamespace* recovered);

  /// \brief True when a committed manifest exists for the namespace.
  static bool Exists(const std::string& dir, const std::string& ns);

  /// \brief Appends one record entry to the WAL (length-prefixed, CRC32
  /// checksummed) and flushes it. Crash points: "wal:before_append",
  /// "wal:mid_append" (torn frame on disk), "wal:after_append" (durable but
  /// unacknowledged).
  Status Append(const WalEntry& entry);

  /// \brief Appends one review-queue event as a single-event frame (same
  /// framing and crash points as Append); the gateway uses it for labels.
  /// The gateway logs the event *before* applying it to the in-memory
  /// queue, so every acked review mutation is on disk.
  Status AppendReview(const ReviewWalEvent& event);

  /// \brief Appends `count` review events of one kind — offers (the full
  /// items) or drains (their pair keys) — as a single batch frame (same
  /// crash points as Append). A frame is all or nothing: replay applies
  /// every event of a durable frame or none of a torn one, so the caller
  /// applies the events only once this returns OK. `count` must be in
  /// [1, kMaxReviewEventsPerFrame]; labels go through AppendReview.
  Status AppendReviewBatch(ReviewWalEvent::Kind kind, const ReviewItem* items,
                           size_t count);

  /// \brief Checkpoints the full record state: writes immutable segment
  /// files and the model file for checkpoint id N+1, starts a fresh WAL,
  /// and commits everything with one atomic manifest rename; old files are
  /// deleted only after the swap. A crash at any point leaves either the
  /// old or the new checkpoint fully committed. `right` is null for dedup
  /// namespaces; `save_model` null when no model is published. `review`,
  /// when non-null, persists the review queue (unlabeled items + labels)
  /// into a review segment the manifest references. Crash points:
  /// "checkpoint:mid_segment", "checkpoint:mid_manifest",
  /// "manifest:before_swap", "manifest:after_swap".
  Status WriteCheckpoint(const Table& left, const Table* right,
                         uint64_t model_version, const ModelSaver& save_model,
                         const ReviewQueue::CheckpointState* review = nullptr);

  /// \brief Entries appended to the active WAL since the last checkpoint
  /// (includes replayed entries after Recover). Counts records and review
  /// events, not frames: a batch frame of N events advances it by N.
  size_t wal_entries_since_checkpoint() const { return wal_entries_; }

  uint64_t checkpoint_id() const { return checkpoint_id_; }

  /// \brief True once a simulated crash killed this log.
  bool dead() const { return dead_; }

  /// \brief Installs telemetry hooks (copied by value). The gateway wires
  /// this right after Create / Recover, before the log sees traffic.
  void set_metrics(const DurabilityMetrics& metrics) { metrics_ = metrics; }

 private:
  NamespaceLog() = default;

  /// \brief Fires the crash hook for `point`; on crash, closes the WAL
  /// stream, marks the log dead, and returns IOError.
  Status CrashPoint(const std::string& point);
  /// \brief Checksums and appends one frame carrying `entries` WAL entries
  /// to the active WAL with a single flush. `frame` holds kFrameHeaderBytes
  /// of placeholder followed by the payload; the header is filled in here.
  /// Shared by Append / AppendReview / AppendReviewBatch.
  Status AppendFrame(std::string* frame, size_t entries);
  /// \brief Undoes a failed write: closes the stream, truncates the WAL
  /// back to its last acknowledged frame and reopens it, so the next append
  /// never lands behind torn bytes. Marks the log dead when that fails.
  /// Returns the IOError to report for the failed append.
  Status RollBackFailedAppend(const std::string& what);
  /// \brief Opens `path` for appending as the active WAL stream.
  Status OpenWal(const std::string& path);
  void CloseWal();

  std::string ns_dir_;
  CrashHook hook_;
  bool fsync_appends_ = false;
  std::FILE* wal_ = nullptr;
  std::string wal_path_;
  /// Bytes of the active WAL up to the end of its last acknowledged frame.
  uint64_t wal_bytes_ = 0;
  uint64_t checkpoint_id_ = 0;  ///< 0 = created but nothing committed yet
  size_t wal_entries_ = 0;
  bool dead_ = false;
  /// Null pointers = no instrumentation; written once before first use.
  DurabilityMetrics metrics_;
};

}  // namespace learnrisk

#endif  // LEARNRISK_GATEWAY_DURABILITY_H_
