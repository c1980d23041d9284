// Copyright 2026 The LearnRisk Authors

#include "review/review_queue.h"

#include <algorithm>
#include <string>

namespace learnrisk {

ReviewQueue::ReviewQueue(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)) {}

ReviewQueue::Entry& ReviewQueue::DrainLocked(Rank::iterator ranked) {
  Entry& entry = ranked->second->second;
  entry.stage = Stage::kOutstanding;
  rank_.erase(ranked);
  depth_.store(rank_.size(), std::memory_order_relaxed);
  outstanding_count_.fetch_add(1, std::memory_order_relaxed);
  drained_.fetch_add(1, std::memory_order_relaxed);
  return entry;
}

ReviewQueue::Offered ReviewQueue::Offer(ReviewItem item) {
  std::lock_guard<std::mutex> lock(mu_);
  offered_.fetch_add(1, std::memory_order_relaxed);
  const PairKey key = KeyOf(item);
  auto it = entries_.lower_bound(key);
  if (it != entries_.end() && it->first == key) {
    // Outstanding or labeled: the human effort is spent (or spending), so
    // the merge leaves the entry as it is. Resident: keep the higher-risk
    // observation, re-ranked in place under the same seq.
    Entry& entry = it->second;
    if (entry.stage == Stage::kResident && item.risk > entry.item.risk) {
      rank_.erase(RankOf(entry));
      entry.item = std::move(item);
      rank_.emplace(RankOf(entry), it);
    }
    merged_.fetch_add(1, std::memory_order_relaxed);
    return Offered::kMerged;
  }

  const uint64_t seq = next_seq_++;
  enqueued_.fetch_add(1, std::memory_order_relaxed);
  if (rank_.size() >= capacity_) {
    // The offer is admitted and something drops, keeping
    // `enqueued == drained + dropped + depth` exact: the weakest resident
    // (rank_'s last entry) if the offer outranks it, else the offer itself.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    auto weakest = std::prev(rank_.end());
    if (!(item.risk > weakest->first.risk)) return Offered::kDropped;
    if (weakest->second == it) ++it;  // `it` stays a valid insertion hint
    entries_.erase(weakest->second);
    rank_.erase(weakest);
  }
  it = entries_.emplace_hint(it, key, Entry{std::move(item), seq});
  rank_.emplace(RankOf(it->second), it);
  depth_.store(rank_.size(), std::memory_order_relaxed);
  return Offered::kAdmitted;
}

std::vector<ReviewItem> ReviewQueue::PeekTop(size_t max_items) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ReviewItem> out;
  const size_t n = std::min(max_items, rank_.size());
  out.reserve(n);
  auto it = rank_.begin();
  for (size_t i = 0; i < n; ++i, ++it) out.push_back(it->second->second.item);
  return out;
}

std::vector<ReviewItem> ReviewQueue::DrainTop(size_t max_items) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ReviewItem> out;
  const size_t n = std::min(max_items, rank_.size());
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(DrainLocked(rank_.begin()).item);
  }
  return out;
}

bool ReviewQueue::MarkDrained(int64_t left, int64_t right) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(PairKey(left, right));
  if (it == entries_.end() || it->second.stage != Stage::kResident) {
    return false;
  }
  DrainLocked(rank_.find(RankOf(it->second)));
  return true;
}

bool ReviewQueue::CanLabel(int64_t left, int64_t right) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(PairKey(left, right));
  return it != entries_.end() && it->second.stage != Stage::kLabeled;
}

bool ReviewQueue::Label(int64_t left, int64_t right, uint8_t truth) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(PairKey(left, right));
  if (it == entries_.end() || it->second.stage == Stage::kLabeled) {
    return false;
  }
  Entry& entry = it->second;
  // Label without a prior drain (direct label, or a replay whose drain
  // frame was lost): drain it first so the invariant stays exact.
  if (entry.stage == Stage::kResident) {
    DrainLocked(rank_.find(RankOf(entry)));
  }
  outstanding_count_.fetch_sub(1, std::memory_order_relaxed);
  entry.stage = Stage::kLabeled;
  labeled_.push_back(LabeledReview{std::move(entry.item), truth});
  labels_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ReviewQueue::RequeueOutstanding() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.stage != Stage::kOutstanding) continue;
    it->second.stage = Stage::kResident;
    rank_.emplace(RankOf(it->second), it);
    ++n;
  }
  depth_.store(rank_.size(), std::memory_order_relaxed);
  outstanding_count_.store(0, std::memory_order_relaxed);
  requeued_.fetch_add(n, std::memory_order_relaxed);
}

Status ReviewQueue::Seed(std::vector<ReviewItem> queued,
                         std::vector<ReviewItem> outstanding,
                         std::vector<LabeledReview> labeled) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  rank_.clear();
  labeled_.clear();
  next_seq_ = 0;
  Status status;
  // Files `item` under its key in `stage`, or reports the key's repeat.
  auto install = [&](ReviewItem& item, Stage stage) {
    auto [it, inserted] = entries_.try_emplace(KeyOf(item));
    if (!inserted) {
      if (status.ok()) {
        status = Status::InvalidArgument(
            "review pair (" + std::to_string(item.left) + ", " +
            std::to_string(item.right) + ") repeats in the seeded state");
      }
      return false;
    }
    it->second.stage = stage;
    if (stage == Stage::kLabeled) return true;
    it->second.seq = next_seq_++;
    it->second.item = std::move(item);
    if (stage == Stage::kResident) rank_.emplace(RankOf(it->second), it);
    return true;
  };
  for (ReviewItem& item : queued) install(item, Stage::kResident);
  // Outstanding items stay outstanding: they do not occupy resident
  // capacity, so WAL replay over the seeded state reproduces the original
  // run's admission/displacement decisions exactly. The caller returns them
  // to the queue after replay (RequeueOutstanding).
  for (ReviewItem& item : outstanding) install(item, Stage::kOutstanding);
  for (LabeledReview& label : labeled) {
    if (install(label.item, Stage::kLabeled)) {
      labeled_.push_back(std::move(label));
    }
  }
  // Reset the counters to a state that satisfies the invariant over the
  // seeded contents: every seeded label (and outstanding item) was once
  // enqueued and drained.
  const uint64_t n_queued = rank_.size();
  const uint64_t n_labeled = labeled_.size();
  const uint64_t n_outstanding = entries_.size() - n_queued - n_labeled;
  offered_.store(entries_.size(), std::memory_order_relaxed);
  enqueued_.store(entries_.size(), std::memory_order_relaxed);
  merged_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  drained_.store(n_outstanding + n_labeled, std::memory_order_relaxed);
  labels_.store(n_labeled, std::memory_order_relaxed);
  requeued_.store(0, std::memory_order_relaxed);
  depth_.store(n_queued, std::memory_order_relaxed);
  outstanding_count_.store(n_outstanding, std::memory_order_relaxed);
  return status;
}

std::vector<LabeledReview> ReviewQueue::Labeled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return labeled_;
}

ReviewQueue::CheckpointState ReviewQueue::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Resident and outstanding items are kept separate (each in enqueue
  // order): recovery seeds them back into the same stage, so replaying the
  // post-checkpoint WAL tail sees the exact occupancy the live queue had
  // and reproduces its admission decisions. Outstanding items return to the
  // queue only after replay (their reviewer died with us).
  auto collect = [this](Stage stage) {
    std::vector<const Entry*> ordered;
    for (const auto& [key, entry] : entries_) {
      if (entry.stage == stage) ordered.push_back(&entry);
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const Entry* a, const Entry* b) { return a->seq < b->seq; });
    std::vector<ReviewItem> items;
    items.reserve(ordered.size());
    for (const Entry* entry : ordered) items.push_back(entry->item);
    return items;
  };
  CheckpointState state;
  state.queued = collect(Stage::kResident);
  state.outstanding = collect(Stage::kOutstanding);
  state.labeled = labeled_;
  return state;
}

ReviewQueueStats ReviewQueue::Stats() const {
  ReviewQueueStats s;
  s.offered = offered_.load(std::memory_order_relaxed);
  s.enqueued = enqueued_.load(std::memory_order_relaxed);
  s.merged = merged_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.drained = drained_.load(std::memory_order_relaxed);
  s.labels = labels_.load(std::memory_order_relaxed);
  s.requeued = requeued_.load(std::memory_order_relaxed);
  s.depth = depth_.load(std::memory_order_relaxed);
  s.outstanding = outstanding_count_.load(std::memory_order_relaxed);
  s.labeled = s.labels;
  s.capacity = capacity_;
  return s;
}

}  // namespace learnrisk
