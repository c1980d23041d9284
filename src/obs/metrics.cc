// Copyright 2026 The LearnRisk Authors

#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace learnrisk {
namespace {

// floor(log2(v)) for v > 0.
inline int HighestBit(uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
  return 63 - __builtin_clzll(v);
#else
  int bit = 0;
  while (v >>= 1) ++bit;
  return bit;
#endif
}

inline void AtomicMax(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t current = target->load(std::memory_order_relaxed);
  while (current < value &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

inline void AtomicMin(std::atomic<uint64_t>* target, uint64_t value) {
  uint64_t current = target->load(std::memory_order_relaxed);
  while (current > value &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

size_t ThisThreadStripe() {
  static std::atomic<size_t> next{0};
  thread_local const size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricStripes;
  return slot;
}

// --- HistogramSnapshot ------------------------------------------------------

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  uint64_t cumulative = 0;
  for (const HistogramBucket& bucket : buckets) {
    cumulative += bucket.count;
    if (cumulative >= rank) {
      return static_cast<double>(std::min(bucket.upper_bound, max));
    }
  }
  return static_cast<double>(max);
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  if (other.count > 0) {
    max = std::max(max, other.max);
    min = count == other.count ? other.min : std::min(min, other.min);
  }
  // Both bucket lists are ascending views of the same fixed layout, so a
  // linear merge by upper bound is exact.
  std::vector<HistogramBucket> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  size_t i = 0;
  size_t j = 0;
  while (i < buckets.size() || j < other.buckets.size()) {
    if (j == other.buckets.size() ||
        (i < buckets.size() &&
         buckets[i].upper_bound < other.buckets[j].upper_bound)) {
      merged.push_back(buckets[i++]);
    } else if (i == buckets.size() ||
               buckets[i].upper_bound > other.buckets[j].upper_bound) {
      merged.push_back(other.buckets[j++]);
    } else {
      merged.push_back(HistogramBucket{buckets[i].upper_bound,
                                       buckets[i].count +
                                           other.buckets[j].count});
      ++i;
      ++j;
    }
  }
  buckets = std::move(merged);
}

// --- HistogramCells ---------------------------------------------------------

template <size_t N>
void HistogramCells<N>::Add(size_t bucket, uint64_t value) {
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
}

template <size_t N>
void HistogramCells<N>::AddBucketed(const uint64_t* counts, uint64_t total,
                                    uint64_t sum, uint64_t min, uint64_t max) {
  if (total == 0) return;
  for (size_t i = 0; i < N; ++i) {
    if (counts[i] > 0) {
      buckets_[i].fetch_add(counts[i], std::memory_order_relaxed);
    }
  }
  count_.fetch_add(total, std::memory_order_relaxed);
  sum_.fetch_add(sum, std::memory_order_relaxed);
  AtomicMin(&min_, min);
  AtomicMax(&max_, max);
}

template <size_t N>
HistogramSnapshot HistogramCells<N>::Snapshot(
    uint64_t (*upper_bound)(size_t)) const {
  HistogramSnapshot snapshot;
  for (size_t i = 0; i < N; ++i) {
    const uint64_t count = buckets_[i].load(std::memory_order_relaxed);
    if (count > 0) {
      snapshot.buckets.push_back(HistogramBucket{upper_bound(i), count});
    }
  }
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  const uint64_t min = min_.load(std::memory_order_relaxed);
  snapshot.min = min == UINT64_MAX ? 0 : min;
  snapshot.max = max_.load(std::memory_order_relaxed);
  return snapshot;
}

template class HistogramCells<LatencyHistogram::kNumBuckets>;
template class HistogramCells<ValueHistogram::kNumBuckets>;

// --- LatencyHistogram -------------------------------------------------------

size_t LatencyHistogram::BucketIndex(uint64_t value) {
  if (value < kSubBucketCount) return value;
  const int exponent = HighestBit(value);  // >= kSubBucketBits
  const size_t shift = static_cast<size_t>(exponent) - kSubBucketBits;
  const size_t sub = static_cast<size_t>(value >> shift) - kSubBucketCount;
  return kSubBucketCount + shift * kSubBucketCount + sub;
}

uint64_t LatencyHistogram::BucketLowerBound(size_t index) {
  if (index < kSubBucketCount) return index;
  const size_t shift = (index - kSubBucketCount) / kSubBucketCount;
  const size_t sub = (index - kSubBucketCount) % kSubBucketCount;
  return static_cast<uint64_t>(kSubBucketCount + sub) << shift;
}

uint64_t LatencyHistogram::BucketUpperBound(size_t index) {
  if (index < kSubBucketCount) return index;
  const size_t shift = (index - kSubBucketCount) / kSubBucketCount;
  return BucketLowerBound(index) + ((uint64_t{1} << shift) - 1);
}

// --- ValueHistogram ---------------------------------------------------------

size_t ValueHistogram::BucketIndex(uint64_t micro_value) {
  const size_t index =
      static_cast<size_t>(micro_value * kNumBuckets / kScale);
  return std::min(index, kNumBuckets - 1);
}

uint64_t ValueHistogram::BucketUpperBound(size_t index) {
  // Inclusive upper bound: bucket i covers micro-values < (i+1)*kScale/64,
  // except the last bucket which also holds exactly kScale.
  if (index + 1 == kNumBuckets) return kScale;
  return (index + 1) * kScale / kNumBuckets - 1;
}

uint64_t ValueHistogram::ToMicro(double value) {
  value = std::min(1.0, std::max(0.0, value));
  return static_cast<uint64_t>(
      std::llround(value * static_cast<double>(kScale)));
}

void ValueHistogram::Record(double value) {
  if (!std::isfinite(value)) return;
  const uint64_t micro = ToMicro(value);
  cells_.Add(BucketIndex(micro), micro);
}

// --- TraceSpan --------------------------------------------------------------

uint64_t TraceSpan::Stop() {
  if (stopped_) return elapsed_ns_;
  stopped_ = true;
  elapsed_ns_ = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  if (histogram_ != nullptr) histogram_->Record(elapsed_ns_);
  if (out_ms_ != nullptr) *out_ms_ = static_cast<double>(elapsed_ns_) / 1e6;
  return elapsed_ns_;
}

// --- MetricsSnapshot lookups ------------------------------------------------

namespace {

template <typename Entry>
const Entry* Find(const std::vector<Entry>& entries, const std::string& name,
                  const MetricLabels& labels) {
  for (const Entry& entry : entries) {
    if (entry.name == name && entry.labels == labels) return &entry;
  }
  return nullptr;
}

}  // namespace

const CounterSnapshot* MetricsSnapshot::FindCounter(
    const std::string& name, const MetricLabels& labels) const {
  return Find(counters, name, labels);
}

const GaugeSnapshot* MetricsSnapshot::FindGauge(
    const std::string& name, const MetricLabels& labels) const {
  return Find(gauges, name, labels);
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    const std::string& name, const MetricLabels& labels) const {
  return Find(histograms, name, labels);
}

}  // namespace learnrisk
