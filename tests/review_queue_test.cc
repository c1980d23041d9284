// Copyright 2026 The LearnRisk Authors
// ReviewQueue unit semantics: pair-key dedup (merges keep the higher-risk
// observation), risk-descending drain order with FIFO tie-breaks, the
// bounded-capacity displacement policy, the exact accounting invariant
// `enqueued + requeued == drained + dropped + depth (+ outstanding)`, the
// replay entry points (MarkDrained, Label-on-resident), and the
// Seed/Snapshot checkpoint round-trip. Each pair is one entry in one stage:
// dropped and displaced pairs are forgotten, outstanding and labeled pairs
// merge without changing their item, Seed refuses a repeated key, and the
// label counter always equals the label count.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "review/review_queue.h"

namespace learnrisk {
namespace {

ReviewItem Item(int64_t left, int64_t right, double risk) {
  ReviewItem item;
  item.left = left;
  item.right = right;
  item.risk = risk;
  item.classifier_prob = 0.25 + 0.5 * risk;
  item.machine_label = risk > 0.5 ? 1 : 0;
  item.model_version = 3;
  item.request_id = 7;
  item.features = {risk, 1.0 - risk};
  return item;
}

// enqueued + requeued == drained + dropped + depth, where depth counts only
// resident items; outstanding items have been drained already.
void ExpectInvariant(const ReviewQueue& queue) {
  const ReviewQueueStats s = queue.Stats();
  EXPECT_EQ(s.enqueued + s.requeued, s.drained + s.dropped + s.depth)
      << "enqueued=" << s.enqueued << " requeued=" << s.requeued
      << " drained=" << s.drained << " dropped=" << s.dropped
      << " depth=" << s.depth;
  EXPECT_EQ(s.offered, s.enqueued + s.merged);
}

TEST(ReviewQueueTest, DedupMergesAndKeepsHigherRisk) {
  ReviewQueue queue(8);
  EXPECT_EQ(queue.Offer(Item(1, 2, 0.5)), ReviewQueue::Offered::kAdmitted);
  // Lower-risk re-offer merges without touching the stored observation.
  EXPECT_EQ(queue.Offer(Item(1, 2, 0.3)), ReviewQueue::Offered::kMerged);
  // Higher-risk re-offer merges and re-ranks the stored observation.
  EXPECT_EQ(queue.Offer(Item(1, 2, 0.9)), ReviewQueue::Offered::kMerged);
  EXPECT_EQ(queue.depth(), 1u);

  const std::vector<ReviewItem> drained = queue.DrainTop(4);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].left, 1);
  EXPECT_EQ(drained[0].right, 2);
  EXPECT_EQ(drained[0].risk, 0.9);

  // Outstanding and labeled keys also dedup: the human effort is already
  // spent (or spending), so re-offers merge instead of re-queueing.
  EXPECT_EQ(queue.Offer(Item(1, 2, 0.99)), ReviewQueue::Offered::kMerged);
  EXPECT_TRUE(queue.Label(1, 2, 1));
  EXPECT_EQ(queue.Offer(Item(1, 2, 0.99)), ReviewQueue::Offered::kMerged);
  EXPECT_EQ(queue.depth(), 0u);
  ExpectInvariant(queue);
}

// The predicate the review WAL's writer and decoder share: the queue can
// order only a finite risk, and retrains only on a probability in [0, 1]
// and a 0/1 machine label.
TEST(ReviewQueueTest, OrderableItemsHaveFiniteRiskAndInRangeDecision) {
  EXPECT_TRUE(IsOrderableReviewItem(Item(0, 0, 0.5)));
  ReviewItem edge = Item(0, 0, -1e300);
  edge.classifier_prob = 1.0;
  EXPECT_TRUE(IsOrderableReviewItem(edge));
  for (double risk : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_FALSE(IsOrderableReviewItem(Item(0, 0, risk))) << risk;
  }
  for (double prob : {-0.01, 1.01, std::nan("")}) {
    ReviewItem item = Item(0, 0, 0.5);
    item.classifier_prob = prob;
    EXPECT_FALSE(IsOrderableReviewItem(item)) << prob;
  }
  ReviewItem label = Item(0, 0, 0.5);
  label.machine_label = 2;
  EXPECT_FALSE(IsOrderableReviewItem(label));
}

TEST(ReviewQueueTest, DrainTopIsRiskDescendingFifoOnTies) {
  ReviewQueue queue(8);
  queue.Offer(Item(0, 0, 0.4));
  queue.Offer(Item(1, 1, 0.8));
  queue.Offer(Item(2, 2, 0.4));  // ties with (0,0); enqueued later
  queue.Offer(Item(3, 3, 0.6));

  const std::vector<ReviewItem> drained = queue.DrainTop(10);
  ASSERT_EQ(drained.size(), 4u);
  EXPECT_EQ(drained[0].left, 1);  // 0.8
  EXPECT_EQ(drained[1].left, 3);  // 0.6
  EXPECT_EQ(drained[2].left, 0);  // 0.4, earlier seq
  EXPECT_EQ(drained[3].left, 2);  // 0.4, later seq
  EXPECT_EQ(queue.outstanding(), 4u);
  ExpectInvariant(queue);
}

TEST(ReviewQueueTest, CapacityDisplacesWeakestOrDropsOffer) {
  ReviewQueue queue(2);
  EXPECT_EQ(queue.Offer(Item(0, 0, 0.5)), ReviewQueue::Offered::kAdmitted);
  EXPECT_EQ(queue.Offer(Item(1, 1, 0.7)), ReviewQueue::Offered::kAdmitted);

  // At capacity, a stronger offer displaces the weakest resident.
  EXPECT_EQ(queue.Offer(Item(2, 2, 0.6)), ReviewQueue::Offered::kAdmitted);
  ReviewQueueStats s = queue.Stats();
  EXPECT_EQ(s.depth, 2u);
  EXPECT_EQ(s.dropped, 1u);
  ExpectInvariant(queue);

  // A weaker offer is itself the drop.
  EXPECT_EQ(queue.Offer(Item(3, 3, 0.1)), ReviewQueue::Offered::kDropped);
  s = queue.Stats();
  EXPECT_EQ(s.depth, 2u);
  EXPECT_EQ(s.dropped, 2u);
  ExpectInvariant(queue);

  // The survivors are exactly the two strongest, strongest first.
  const std::vector<ReviewItem> drained = queue.DrainTop(10);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].left, 1);
  EXPECT_EQ(drained[1].left, 2);
  ExpectInvariant(queue);
}

TEST(ReviewQueueTest, LabelRequiresDrainAndRequeueRestoresRank) {
  ReviewQueue queue(8);
  queue.Offer(Item(0, 0, 0.9));
  queue.Offer(Item(1, 1, 0.2));

  // Labels only apply to drained (or, for replay, resident) pairs.
  EXPECT_FALSE(queue.Label(5, 5, 1));

  std::vector<ReviewItem> drained = queue.DrainTop(1);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].left, 0);

  // The reviewer died: the outstanding item returns to the resident queue
  // and drains again at its original rank.
  queue.RequeueOutstanding();
  EXPECT_EQ(queue.outstanding(), 0u);
  EXPECT_EQ(queue.depth(), 2u);
  ExpectInvariant(queue);

  drained = queue.DrainTop(2);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].left, 0);
  EXPECT_EQ(drained[1].left, 1);

  EXPECT_TRUE(queue.Label(0, 0, 1));
  EXPECT_TRUE(queue.Label(1, 1, 0));
  EXPECT_FALSE(queue.Label(0, 0, 1));  // double-label rejected
  const std::vector<LabeledReview> labels = queue.Labeled();
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0].item.left, 0);
  EXPECT_EQ(labels[0].truth, 1);
  EXPECT_EQ(labels[1].item.left, 1);
  EXPECT_EQ(labels[1].truth, 0);
  ExpectInvariant(queue);
}

TEST(ReviewQueueTest, ReplayEntryPointsMatchLiveSemantics) {
  ReviewQueue queue(8);
  queue.Offer(Item(0, 0, 0.9));
  queue.Offer(Item(1, 1, 0.5));

  // MarkDrained moves a specific resident key (recovery replays drains by
  // key, not rank); unknown keys report false.
  EXPECT_TRUE(queue.MarkDrained(1, 1));
  EXPECT_FALSE(queue.MarkDrained(1, 1));
  EXPECT_FALSE(queue.MarkDrained(9, 9));
  EXPECT_EQ(queue.outstanding(), 1u);
  ExpectInvariant(queue);

  // Label on a still-resident pair counts the implicit drain (a checkpoint
  // folded the drained pair back into the queue before the label arrived).
  EXPECT_TRUE(queue.Label(0, 0, 1));
  const ReviewQueueStats s = queue.Stats();
  EXPECT_EQ(s.drained, 2u);
  EXPECT_EQ(s.labels, 1u);
  EXPECT_EQ(s.depth, 0u);
  EXPECT_EQ(s.outstanding, 1u);
  ExpectInvariant(queue);
}

TEST(ReviewQueueTest, SeedSnapshotRoundTrip) {
  ReviewQueue queue(16);
  queue.Offer(Item(0, 0, 0.9));
  queue.Offer(Item(1, 1, 0.2));
  queue.Offer(Item(2, 2, 0.7));
  queue.DrainTop(1);            // (0,0) outstanding
  queue.Label(0, 0, 1);
  queue.DrainTop(1);            // (2,2) outstanding, unlabeled

  // Snapshot keeps resident and outstanding items in their stages (each in
  // enqueue order), plus every label.
  const ReviewQueue::CheckpointState state = queue.Snapshot();
  ASSERT_EQ(state.queued.size(), 1u);
  EXPECT_EQ(state.queued[0].left, 1);
  ASSERT_EQ(state.outstanding.size(), 1u);
  EXPECT_EQ(state.outstanding[0].left, 2);
  ASSERT_EQ(state.labeled.size(), 1u);
  EXPECT_EQ(state.labeled[0].item.left, 0);
  EXPECT_EQ(state.labeled[0].truth, 1);

  // Seeding a fresh queue reproduces the same stages, label set, and a
  // consistent accounting state.
  ReviewQueue recovered(16);
  recovered.Seed(state.queued, state.outstanding, state.labeled);
  ExpectInvariant(recovered);
  EXPECT_EQ(recovered.depth(), 1u);
  EXPECT_EQ(recovered.outstanding(), 1u);
  EXPECT_EQ(recovered.num_labeled(), 1u);
  // A labeled key stays deduplicated after seeding; so does an outstanding
  // one.
  EXPECT_EQ(recovered.Offer(Item(0, 0, 0.99)), ReviewQueue::Offered::kMerged);
  EXPECT_EQ(recovered.Offer(Item(2, 2, 0.99)), ReviewQueue::Offered::kMerged);
  // A seeded-outstanding pair accepts its replayed label directly.
  EXPECT_TRUE(recovered.Label(2, 2, 0));

  // Recovery's final step returns any still-outstanding item to the queue.
  recovered.RequeueOutstanding();
  const std::vector<ReviewItem> drained = recovered.DrainTop(4);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].left, 1);
  ExpectInvariant(recovered);
}

// Regression for a recovery-divergence bug: the checkpoint used to fold
// outstanding items back into the resident queue, so post-checkpoint WAL
// replay ran against a *fuller* queue than the live one and could
// capacity-drop an offer that was originally admitted — silently losing the
// pair's subsequent acked drain/label. Seeding outstanding items as
// outstanding keeps the replay occupancy exact, so a replayed Offer makes
// the live capacity decision and logged drains/labels find their pair.
TEST(ReviewQueueTest, SeededOutstandingDoesNotStealReplayCapacity) {
  ReviewQueue live(2);
  live.Offer(Item(0, 0, 0.9));
  live.Offer(Item(1, 1, 0.8));           // queue full
  live.DrainTop(1);                      // (0,0) outstanding
  const ReviewQueue::CheckpointState state = live.Snapshot();
  ASSERT_EQ(state.queued.size(), 1u);
  ASSERT_EQ(state.outstanding.size(), 1u);

  // Live continues past the checkpoint: one resident slot is free, so a
  // weaker offer is admitted, drained, and labeled (all WAL-logged).
  EXPECT_EQ(live.Offer(Item(2, 2, 0.5)), ReviewQueue::Offered::kAdmitted);
  EXPECT_TRUE(live.MarkDrained(2, 2));
  EXPECT_TRUE(live.Label(2, 2, 1));

  // Recovery: seed the checkpoint, replay the logged events. The offer must
  // be admitted exactly as it was live — the outstanding (0,0) does not
  // occupy resident capacity — and the acked label must land.
  ReviewQueue recovered(2);
  recovered.Seed(state.queued, state.outstanding, state.labeled);
  EXPECT_EQ(recovered.Offer(Item(2, 2, 0.5)),
            ReviewQueue::Offered::kAdmitted);
  EXPECT_TRUE(recovered.MarkDrained(2, 2));
  EXPECT_TRUE(recovered.Label(2, 2, 1));
  recovered.RequeueOutstanding();
  ExpectInvariant(recovered);
  EXPECT_EQ(recovered.num_labeled(), 1u);
  EXPECT_EQ(recovered.depth(), 2u);  // (1,1) and the requeued (0,0)

  // A replayed Offer at capacity drops exactly what the live queue
  // dropped. Live fills its last slot, drops a weaker offer and lets a
  // stronger one displace; replaying the whole log over the same
  // checkpoint returns the same verdicts and leaves the same queue.
  const std::vector<ReviewItem> more = {Item(3, 3, 0.3), Item(4, 4, 0.1),
                                        Item(5, 5, 0.7)};
  std::vector<ReviewQueue::Offered> verdicts;
  for (const ReviewItem& item : more) verdicts.push_back(live.Offer(item));
  EXPECT_EQ(verdicts, (std::vector<ReviewQueue::Offered>{
                          ReviewQueue::Offered::kAdmitted,
                          ReviewQueue::Offered::kDropped,
                          ReviewQueue::Offered::kAdmitted}));
  ReviewQueue replayed(2);
  replayed.Seed(state.queued, state.outstanding, state.labeled);
  replayed.Offer(Item(2, 2, 0.5));
  EXPECT_TRUE(replayed.MarkDrained(2, 2));
  EXPECT_TRUE(replayed.Label(2, 2, 1));
  for (size_t i = 0; i < more.size(); ++i) {
    EXPECT_EQ(replayed.Offer(more[i]), verdicts[i]) << i;
  }
  EXPECT_EQ(replayed.Stats().dropped, 2u);
  EXPECT_EQ(replayed.depth(), live.depth());
  const std::vector<ReviewItem> want = live.PeekTop(8);
  const std::vector<ReviewItem> got = replayed.PeekTop(8);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].left, want[i].left) << i;
  }
  ExpectInvariant(replayed);
}

TEST(ReviewQueueTest, PeekTopMatchesDrainTop) {
  ReviewQueue queue(8);
  queue.Offer(Item(0, 0, 0.4));
  queue.Offer(Item(1, 1, 0.8));
  queue.Offer(Item(2, 2, 0.6));

  const std::vector<ReviewItem> peeked = queue.PeekTop(2);
  EXPECT_EQ(queue.depth(), 3u);  // peek does not remove
  const std::vector<ReviewItem> drained = queue.DrainTop(2);
  ASSERT_EQ(peeked.size(), drained.size());
  for (size_t i = 0; i < peeked.size(); ++i) {
    EXPECT_EQ(peeked[i].left, drained[i].left);
    EXPECT_EQ(peeked[i].right, drained[i].right);
    EXPECT_EQ(peeked[i].risk, drained[i].risk);
  }
  ExpectInvariant(queue);
}

// A pair that drops at capacity, or that a stronger offer displaces, leaves
// no trace: offering it again once there is room admits it afresh.
TEST(ReviewQueueTest, DroppedAndDisplacedPairsAreForgotten) {
  ReviewQueue queue(2);
  EXPECT_EQ(queue.Offer(Item(0, 0, 0.5)), ReviewQueue::Offered::kAdmitted);
  EXPECT_EQ(queue.Offer(Item(1, 1, 0.6)), ReviewQueue::Offered::kAdmitted);
  EXPECT_EQ(queue.Offer(Item(2, 2, 0.1)), ReviewQueue::Offered::kDropped);
  EXPECT_EQ(queue.Offer(Item(3, 3, 0.9)), ReviewQueue::Offered::kAdmitted);
  // (0,0) was displaced by (3,3); drain both residents to make room.
  const std::vector<ReviewItem> drained = queue.DrainTop(2);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].left, 3);
  EXPECT_EQ(drained[1].left, 1);

  EXPECT_EQ(queue.Offer(Item(2, 2, 0.1)), ReviewQueue::Offered::kAdmitted);
  EXPECT_EQ(queue.Offer(Item(0, 0, 0.5)), ReviewQueue::Offered::kAdmitted);
  const ReviewQueueStats s = queue.Stats();
  EXPECT_EQ(s.depth, 2u);
  EXPECT_EQ(s.merged, 0u);
  EXPECT_EQ(s.dropped, 2u);
  ExpectInvariant(queue);
  EXPECT_TRUE(queue.CanLabel(0, 0));
  EXPECT_TRUE(queue.CanLabel(2, 2));
}

// Outstanding and labeled pairs merge a re-offer, however risky, and keep
// the item they hold: the reviewer labels what was drained.
TEST(ReviewQueueTest, OutstandingAndLabeledMergesKeepTheStoredItem) {
  ReviewQueue queue(8);
  queue.Offer(Item(1, 1, 0.4));
  queue.Offer(Item(2, 2, 0.3));
  ASSERT_EQ(queue.DrainTop(2).size(), 2u);
  ASSERT_TRUE(queue.Label(2, 2, 1));

  ReviewItem riskier = Item(1, 1, 0.95);
  riskier.model_version = 9;
  riskier.features = {5.0, 6.0};
  EXPECT_EQ(queue.Offer(riskier), ReviewQueue::Offered::kMerged);
  riskier.left = riskier.right = 2;
  EXPECT_EQ(queue.Offer(riskier), ReviewQueue::Offered::kMerged);

  const ReviewQueue::CheckpointState state = queue.Snapshot();
  EXPECT_TRUE(state.queued.empty());
  ASSERT_EQ(state.outstanding.size(), 1u);
  EXPECT_EQ(state.outstanding[0].risk, 0.4);
  EXPECT_EQ(state.outstanding[0].model_version, 3u);
  EXPECT_EQ(state.outstanding[0].features, Item(1, 1, 0.4).features);
  ASSERT_EQ(state.labeled.size(), 1u);
  EXPECT_EQ(state.labeled[0].item.risk, 0.3);
  EXPECT_EQ(state.labeled[0].item.model_version, 3u);
  EXPECT_EQ(state.labeled[0].item.features, Item(2, 2, 0.3).features);

  // The outstanding pair's label carries the drained observation.
  ASSERT_TRUE(queue.Label(1, 1, 0));
  const std::vector<LabeledReview> labels = queue.Labeled();
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[1].item.risk, 0.4);
  EXPECT_EQ(labels[1].item.features, Item(1, 1, 0.4).features);
  EXPECT_EQ(queue.depth(), 0u);
  ExpectInvariant(queue);
}

// Stats().labels (labels accepted) and Stats().labeled (labels held) are
// one number after every way a label arrives.
TEST(ReviewQueueTest, LabelsEqualLabeledAfterSeedAndLabel) {
  auto expect_equal = [](const ReviewQueue& queue, size_t want) {
    const ReviewQueueStats s = queue.Stats();
    EXPECT_EQ(s.labels, want);
    EXPECT_EQ(s.labeled, want);
    EXPECT_EQ(queue.num_labeled(), want);
    EXPECT_EQ(queue.Labeled().size(), want);
  };
  ReviewQueue queue(8);
  ASSERT_TRUE(queue
                  .Seed({Item(0, 0, 0.5), Item(1, 1, 0.6)}, {Item(2, 2, 0.7)},
                        {LabeledReview{Item(3, 3, 0.8), 1}})
                  .ok());
  expect_equal(queue, 1);
  ASSERT_TRUE(queue.Label(2, 2, 0));  // outstanding
  expect_equal(queue, 2);
  ASSERT_TRUE(queue.Label(0, 0, 1));  // resident: implicit drain
  expect_equal(queue, 3);
  EXPECT_FALSE(queue.Label(3, 3, 1));  // seeded label: refused
  expect_equal(queue, 3);
  ExpectInvariant(queue);
}

// Requeued items rejoin the resident stage under their original enqueue
// sequence, so a checkpoint lists them in enqueue order, not rank order.
TEST(ReviewQueueTest, SnapshotIsInEnqueueOrderAfterRequeue) {
  ReviewQueue queue(8);
  queue.Offer(Item(0, 0, 0.2));
  queue.Offer(Item(1, 1, 0.9));
  queue.Offer(Item(2, 2, 0.5));
  queue.Offer(Item(3, 3, 0.7));
  ASSERT_EQ(queue.DrainTop(2).size(), 2u);  // (1,1) and (3,3)
  auto lefts = [](const std::vector<ReviewItem>& items) {
    std::vector<int64_t> out;
    for (const ReviewItem& item : items) out.push_back(item.left);
    return out;
  };
  ReviewQueue::CheckpointState state = queue.Snapshot();
  EXPECT_EQ(lefts(state.queued), (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(lefts(state.outstanding), (std::vector<int64_t>{1, 3}));

  queue.RequeueOutstanding();
  state = queue.Snapshot();
  EXPECT_EQ(lefts(state.queued), (std::vector<int64_t>{0, 1, 2, 3}));
  EXPECT_TRUE(state.outstanding.empty());
  EXPECT_EQ(lefts(queue.PeekTop(4)), (std::vector<int64_t>{1, 3, 2, 0}));
  ExpectInvariant(queue);
}

// A pair key may appear once across Seed's three lists. A repeat within a
// list or across two is reported; the first occurrence stays, and the
// accounting holds over what was kept.
TEST(ReviewQueueTest, SeedReportsARepeatedPairKey) {
  const ReviewItem a = Item(4, 5, 0.6);
  const ReviewItem b = Item(6, 7, 0.3);
  struct Case {
    std::vector<ReviewItem> queued;
    std::vector<ReviewItem> outstanding;
    std::vector<LabeledReview> labeled;
    size_t kept;  ///< distinct pairs
  };
  const std::vector<Case> cases = {
      {{a, b, a}, {}, {}, 2},
      {{a}, {a}, {}, 1},
      {{a, b}, {}, {LabeledReview{a, 1}}, 2},
      {{b}, {a}, {LabeledReview{a, 0}}, 2},
      {{}, {b}, {LabeledReview{a, 1}, LabeledReview{a, 0}}, 2},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(i);
    ReviewQueue queue(8);
    const Status status = queue.Seed(cases[i].queued, cases[i].outstanding,
                                     cases[i].labeled);
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_NE(status.message().find("(4, 5)"), std::string::npos)
        << status.ToString();
    const ReviewQueueStats s = queue.Stats();
    EXPECT_EQ(s.depth + s.outstanding + s.labeled, cases[i].kept);
    EXPECT_EQ(s.labels, s.labeled);
    ExpectInvariant(queue);
  }
  ReviewQueue queue(8);
  EXPECT_TRUE(queue.Seed({a}, {b}, {LabeledReview{Item(8, 9, 0.1), 1}}).ok());
}

}  // namespace
}  // namespace learnrisk
