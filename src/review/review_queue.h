// Copyright 2026 The LearnRisk Authors
// Risk-driven review queue (paper Sec. 1, 7.4; r-HUMO's budgeted review
// loop): the gateway enqueues each request's top-k riskiest decisions here,
// Gateway::DrainReview hands them out highest-risk-first for human labeling,
// and the labels feed incremental risk-model retraining
// (active/incremental_retrain).
//
// Semantics (full protocol: docs/REVIEW.md):
//  * One entry per pair key (left, right), in one stage: resident
//    (drainable), outstanding (drained, awaiting a label) or labeled.
//    Re-offering a pair in any stage merges instead of duplicating (a merge
//    onto a resident pair keeps the higher-risk observation; outstanding and
//    labeled pairs keep theirs). A displaced or dropped pair is forgotten,
//    so a later offer of it is admitted afresh.
//  * Risk-priority ordered: DrainTop returns the riskiest resident pairs,
//    ties broken by enqueue order.
//  * Bounded: at capacity a new offer displaces the lowest-risk resident if
//    it outranks it, otherwise the offer itself is the drop. Either way the
//    accounting invariant holds exactly:
//        enqueued + requeued == drained + dropped + depth
//    (every admitted item is eventually drained, dropped, or resident).
//    Offers never shrink the queue: after a restart's RequeueOutstanding,
//    depth stays above capacity by up to the requeued count until drains
//    bring it down.
//  * One offer path: recovery replays logged offers through Offer itself,
//    so a queue seeded from a checkpoint and replayed from the WAL makes
//    the same admit/displace/drop decisions the live queue made.
//  * Lock-free readers: depth/outstanding/counters are relaxed atomics, so
//    metric gauges and accounting checks never contend with the enqueue path.
//
// Mutations take one internal mutex; the gateway's durable mode additionally
// serializes them behind shard 0's writer mutex so WAL order equals apply
// order (see Gateway::EnqueueReview).

#ifndef LEARNRISK_REVIEW_REVIEW_QUEUE_H_
#define LEARNRISK_REVIEW_REVIEW_QUEUE_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "common/status.h"

namespace learnrisk {

/// \brief Per-namespace review configuration (GatewayOptions::review).
///
/// Offers are fail-open: a review-WAL append failure during Resolve /
/// ResolveRecord is counted (learnrisk_gateway_review_log_failures_total),
/// the request's remaining offers are skipped, and the scored response is
/// still returned. Drains and labels are fail-closed: they acknowledge
/// reviewer effort, so they never succeed without their WAL frame (a drain
/// whose later frame fails hands out only its durable prefix).
struct ReviewOptions {
  /// Master switch: when false no queue is created and Resolve/ResolveRecord
  /// skip the enqueue hook entirely.
  bool enabled = false;
  /// Top-k riskiest decisions each Resolve / ResolveRecord may enqueue
  /// (r-HUMO's per-round budget). 0 disables enqueueing.
  size_t per_request_budget = 4;
  /// Resident-queue bound; see the displacement policy above.
  size_t queue_capacity = 1024;
};

/// \brief One enqueued machine decision, carrying everything retraining and
/// drift-baseline refresh need: the pair key, the decision (risk, classifier
/// probability, machine label, model version), and the metric feature row.
struct ReviewItem {
  /// Left record id; -1 for ResolveRecord probes (the probe is not a stored
  /// record, so the pair keys on the candidate side alone).
  int64_t left = -1;
  int64_t right = -1;
  double risk = 0.0;
  double classifier_prob = 0.0;
  uint8_t machine_label = 0;
  /// Model version that produced `risk` (drift across retrains is visible).
  uint64_t model_version = 0;
  /// Gateway request id of the Resolve that offered this pair.
  uint64_t request_id = 0;
  /// The pair's metric feature row (pipeline metric order) — the retrain
  /// input, kept so labels stay usable across rule-set revisions.
  std::vector<double> features;
};

/// \brief A reviewed item plus its human (oracle) label.
struct LabeledReview {
  ReviewItem item;
  uint8_t truth = 0;  ///< 1 = the pair is equivalent
};

/// \brief True when the queue can order `item` and retrain on it: a finite
/// risk (a NaN breaks the rank order), a classifier probability in [0, 1]
/// and a machine label of 0 or 1. The review WAL's writer and its decoder
/// both apply it, so the log never holds an item that recovery refuses.
inline bool IsOrderableReviewItem(const ReviewItem& item) {
  return std::isfinite(item.risk) && item.classifier_prob >= 0.0 &&
         item.classifier_prob <= 1.0 && item.machine_label <= 1;
}

/// \brief Point-in-time accounting snapshot (all readable lock-free).
struct ReviewQueueStats {
  uint64_t offered = 0;   ///< Offer calls
  uint64_t enqueued = 0;  ///< offers admitted into the queue
  uint64_t merged = 0;    ///< offers deduplicated against an existing key
  uint64_t dropped = 0;   ///< admitted items displaced or rejected at capacity
  uint64_t drained = 0;   ///< items handed to a reviewer (incl. direct labels)
  uint64_t labels = 0;    ///< labels accepted
  uint64_t requeued = 0;  ///< outstanding items re-queued after recovery
  size_t depth = 0;       ///< resident (drainable) items
  size_t outstanding = 0; ///< drained, awaiting a label
  size_t labeled = 0;     ///< labels held for the next retrain
  size_t capacity = 0;
};

/// \brief Bounded, deduplicated, risk-ordered review queue.
///
/// Thread safety: every mutating call takes the internal mutex; the stats
/// accessors and depth/outstanding gauges are lock-free relaxed atomic reads.
class ReviewQueue {
 public:
  enum class Offered { kAdmitted, kMerged, kDropped };

  explicit ReviewQueue(size_t capacity);

  /// \brief Offers one decision. Admits, merges onto an existing key (the
  /// higher-risk observation wins), or drops per the capacity policy.
  Offered Offer(ReviewItem item);

  /// \brief Copies (without removing) the up-to-`max_items` riskiest
  /// resident pairs in DrainTop order. With no interleaved mutation, an
  /// immediately following DrainTop(max_items) returns exactly these items
  /// — the gateway uses this to WAL-log drain frames *before* mutating the
  /// queue.
  std::vector<ReviewItem> PeekTop(size_t max_items) const;

  /// \brief Removes up to `max_items` riskiest resident pairs (risk
  /// descending, enqueue order on ties) and marks them outstanding until
  /// Label or RequeueOutstanding returns them.
  std::vector<ReviewItem> DrainTop(size_t max_items);

  /// \brief Replay helper: moves one specific resident pair to outstanding
  /// (recovery re-applies logged drains by key, not by rank). False when the
  /// key is not resident.
  bool MarkDrained(int64_t left, int64_t right);

  /// \brief True when Label(left, right, ...) would be accepted (the key is
  /// outstanding or resident). The gateway validates with this *before*
  /// WAL-logging a label so the NotFound path never writes a frame.
  bool CanLabel(int64_t left, int64_t right) const;

  /// \brief Accepts a label for an outstanding pair — or a resident one
  /// (a reviewer may label without a prior drain, and recovery replay can
  /// meet a pair whose drain frame was lost; the resident item is accounted
  /// drained-then-labeled). False when the key is neither outstanding nor
  /// resident.
  bool Label(int64_t left, int64_t right, uint8_t truth);

  /// \brief Returns every outstanding item to the resident queue (the
  /// reviewer session died, e.g. across a crash/restart). Depth may then
  /// exceed capacity by up to the number of requeued items, and stays there
  /// until drains bring it down: an offer at capacity displaces or drops one
  /// item, never more.
  void RequeueOutstanding();

  /// \brief Recovery seeding from a checkpoint: installs `queued` as
  /// resident (in order, as admitted), `outstanding` as outstanding (so
  /// post-checkpoint WAL replay runs against exactly the live state — the
  /// capacity/displacement decisions reproduce, and labels for drained
  /// pairs land on outstanding entries just as they did live), and
  /// `labeled`, resetting counters so the accounting invariant holds over
  /// the seeded state. The caller requeues outstanding items only *after*
  /// replay (RequeueOutstanding). A pair key may appear once across the
  /// three lists; a repeat is skipped (the first occurrence stays) and
  /// reported as InvalidArgument.
  Status Seed(std::vector<ReviewItem> queued,
              std::vector<ReviewItem> outstanding,
              std::vector<LabeledReview> labeled);

  /// \brief Copies the labels accumulated so far (label-acceptance order).
  std::vector<LabeledReview> Labeled() const;

  /// \brief Checkpoint view: resident items and outstanding items
  /// (each in enqueue order, kept separate so recovery can restore the
  /// exact live occupancy), plus every label.
  struct CheckpointState {
    std::vector<ReviewItem> queued;       ///< resident, enqueue order
    std::vector<ReviewItem> outstanding;  ///< drained-unlabeled, enqueue order
    std::vector<LabeledReview> labeled;
  };
  CheckpointState Snapshot() const;

  ReviewQueueStats Stats() const;
  size_t depth() const { return depth_.load(std::memory_order_relaxed); }
  size_t outstanding() const {
    return outstanding_count_.load(std::memory_order_relaxed);
  }
  size_t num_labeled() const {
    return labels_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_; }

 private:
  using PairKey = std::pair<int64_t, int64_t>;
  enum class Stage : uint8_t { kResident, kOutstanding, kLabeled };
  struct Entry {
    /// The item; a labeled entry's payload has moved to labeled_.
    ReviewItem item;
    uint64_t seq = 0;
    Stage stage = Stage::kResident;
  };
  using Entries = std::map<PairKey, Entry>;
  /// Orders resident pairs riskiest-first; seq breaks ties FIFO.
  struct RankKey {
    double risk = 0.0;
    uint64_t seq = 0;
    bool operator<(const RankKey& other) const {
      if (risk != other.risk) return risk > other.risk;
      return seq < other.seq;
    }
  };
  using Rank = std::map<RankKey, Entries::iterator>;

  static PairKey KeyOf(const ReviewItem& item) {
    return PairKey(item.left, item.right);
  }
  static RankKey RankOf(const Entry& entry) {
    return RankKey{entry.item.risk, entry.seq};
  }
  /// Moves one resident entry to outstanding, counting the drain (caller
  /// holds mu_).
  Entry& DrainLocked(Rank::iterator ranked);

  const size_t capacity_;
  mutable std::mutex mu_;
  uint64_t next_seq_ = 0;
  /// Every pair the queue remembers, each in exactly one stage.
  Entries entries_;
  /// The resident entries, riskiest-first.
  Rank rank_;
  /// Labels in acceptance order.
  std::vector<LabeledReview> labeled_;

  // Lock-free reader side (metric gauges, accounting asserts).
  std::atomic<size_t> depth_{0};
  std::atomic<size_t> outstanding_count_{0};
  std::atomic<uint64_t> offered_{0};
  std::atomic<uint64_t> enqueued_{0};
  std::atomic<uint64_t> merged_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> drained_{0};
  std::atomic<uint64_t> labels_{0};
  std::atomic<uint64_t> requeued_{0};
};

}  // namespace learnrisk

#endif  // LEARNRISK_REVIEW_REVIEW_QUEUE_H_
